"""Three-valued (0/1/X) simulation for reset-coverage analysis.

The bit-parallel engine is two-valued (states start at their declared
init).  For *verifying* initialization this module provides a separate
3-valued interpreter: all flip-flops and memory cells start at X, the
reset sequence is applied, and anything still X afterwards — or worse,
X reaching a primary output during operation — is reported.

This is the standard X-propagation check of RTL sign-off: a register
without reset is fine as long as its X can never reach an output
before being overwritten by real data; the analysis tells the two
cases apart.

Pessimism note: this is classic "X-pessimism" simulation — ``X & 0``
is 0 and ``X | 1`` is 1, but ``mux(X, a, a)`` is X even though both
arms agree.  Anything reported clean is truly clean; reports may
over-approximate X reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import (
    Circuit,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)

X = None  # the unknown value; 0/1 are known


def _and3(a, b):
    if a == 0 or b == 0:
        return 0
    if a == 1 and b == 1:
        return 1
    return X


def _or3(a, b):
    if a == 1 or b == 1:
        return 1
    if a == 0 and b == 0:
        return 0
    return X


def _not3(a):
    return X if a is X else 1 - a


def _xor3(a, b):
    if a is X or b is X:
        return X
    return a ^ b


class XSimulator:
    """Levelized 3-valued simulator (one machine, X-pessimistic)."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._order = circuit.levelize()
        self.values: list = [X] * circuit.num_nets
        self.flop_state: list = [X] * len(circuit.flops)
        # each word modelled as a single symbol: X or an int
        self._mem: list = [[X] * m.depth for m in circuit.memories]
        self._mem_rdata: list = [X] * len(circuit.memories)
        self.cycle = 0

    # ------------------------------------------------------------------
    def step(self, inputs: dict[str, int]) -> None:
        vals = self.values
        for name, value in inputs.items():
            for bit, net in enumerate(self.circuit.inputs[name]):
                vals[net] = (value >> bit) & 1
        for i, flop in enumerate(self.circuit.flops):
            vals[flop.q] = self.flop_state[i]
        for mi, mem in enumerate(self.circuit.memories):
            word = self._mem_rdata[mi]
            for bit, net in enumerate(mem.rdata):
                vals[net] = X if word is X else (word >> bit) & 1

        for gi in self._order:
            gate = self.circuit.gates[gi]
            ins = [vals[n] for n in gate.inputs]
            op = gate.op
            if op == OP_AND:
                v = _and3(ins[0], ins[1])
            elif op == OP_OR:
                v = _or3(ins[0], ins[1])
            elif op == OP_XOR:
                v = _xor3(ins[0], ins[1])
            elif op == OP_NOT:
                v = _not3(ins[0])
            elif op == OP_BUF:
                v = ins[0]
            elif op == OP_NAND:
                v = _not3(_and3(ins[0], ins[1]))
            elif op == OP_NOR:
                v = _not3(_or3(ins[0], ins[1]))
            elif op == OP_XNOR:
                v = _not3(_xor3(ins[0], ins[1]))
            elif op == OP_MUX:
                s, a, b = ins
                if s is X:
                    v = a if a == b and a is not X else X
                else:
                    v = a if s else b
            elif op == OP_CONST0:
                v = 0
            else:
                v = 1
            vals[gate.out] = v

        # sequential commit
        for i, flop in enumerate(self.circuit.flops):
            d = vals[flop.d]
            q = self.flop_state[i]
            en = 1 if flop.en is None else vals[flop.en]
            if en is X:
                nxt = d if d == q and d is not X else X
            else:
                nxt = d if en else q
            if flop.rst is not None:
                rst = vals[flop.rst]
                if rst is X:
                    nxt = nxt if nxt == flop.init else X
                elif rst:
                    nxt = flop.init
            self.flop_state[i] = nxt

        for mi, mem in enumerate(self.circuit.memories):
            addr_bits = [vals[n] for n in mem.addr]
            we = vals[mem.we]
            store = self._mem[mi]
            if any(b is X for b in addr_bits):
                self._mem_rdata[mi] = X
                if we is X or we == 1:
                    # writing to an unknown address poisons the array
                    for w in range(mem.depth):
                        store[w] = X
            else:
                addr = sum(b << i for i, b in enumerate(addr_bits))
                addr %= mem.depth
                self._mem_rdata[mi] = store[addr]
                if we is X:
                    store[addr] = X
                elif we:
                    wbits = [vals[n] for n in mem.wdata]
                    if any(b is X for b in wbits):
                        store[addr] = X
                    else:
                        store[addr] = sum(
                            b << i for i, b in enumerate(wbits))
        self.cycle += 1

    # ------------------------------------------------------------------
    def unknown_flops(self) -> list[str]:
        return [f.name for i, f in enumerate(self.circuit.flops)
                if self.flop_state[i] is X]

    def unknown_outputs(self) -> list[str]:
        out = []
        for name, nets in self.circuit.outputs.items():
            if any(self.values[n] is X for n in nets):
                out.append(name)
        return out


@dataclass
class ResetReport:
    """Outcome of a reset-coverage analysis."""

    cycles_of_reset: int
    unknown_after_reset: list[str] = field(default_factory=list)
    x_reaching_outputs: list[str] = field(default_factory=list)

    @property
    def fully_initialized(self) -> bool:
        return not self.unknown_after_reset

    @property
    def clean(self) -> bool:
        """No X observable at the outputs (the sign-off criterion)."""
        return not self.x_reaching_outputs

    def summary(self) -> str:
        return (f"reset coverage: {len(self.unknown_after_reset)} flops "
                f"still X after {self.cycles_of_reset} reset cycles; "
                f"X at outputs during check: "
                f"{self.x_reaching_outputs or 'none'}")


def reset_coverage(circuit: Circuit, reset_sequence,
                   check_sequence=()) -> ResetReport:
    """Apply reset stimuli from all-X, then check X observability.

    ``reset_sequence``/``check_sequence`` are iterables of input dicts.
    Registers still X after reset are only a problem if the check
    sequence exposes an X at a primary output.
    """
    sim = XSimulator(circuit)
    count = 0
    for inputs in reset_sequence:
        sim.step(inputs)
        count += 1
    report = ResetReport(cycles_of_reset=count,
                         unknown_after_reset=sim.unknown_flops())
    seen: set[str] = set()
    for inputs in check_sequence:
        sim.step(inputs)
        seen.update(sim.unknown_outputs())
    report.x_reaching_outputs = sorted(seen)
    return report
