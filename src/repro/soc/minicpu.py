"""A gate-level accumulator CPU with an optional lock-step checker.

The paper's §2 lists processing-unit failure modes (DC faults on
registers, "wrong coding or wrong execution") and the Annex A
techniques against them — with HW redundancy (lock-step cores with
comparison) assessed as a *high* (99 %) diagnostic-coverage technique.
The companion papers ([8][16][17]: the fault-robust microcontroller /
fRCPU line) build exactly such checked CPUs.

This module provides the processing-unit counterpart of the memory
case study: a small Harvard-architecture accumulator machine built
through the same DSL, so the whole methodology (zones, FMEA, fault
injection) applies unchanged — plus a lock-step variant in which a
shadow core re-executes everything and a comparator raises a sticky
``alarm_lockstep`` on any divergence of the architectural outputs.

ISA (8-bit instructions: ``ooo aaaaa``):

====  ======  ================================
op    name    effect
====  ======  ================================
0     NOP     —
1     LDI i   ACC <- i (5-bit immediate)
2     LD  a   ACC <- DMEM[a]
3     ST  a   DMEM[a] <- ACC
4     ADD a   ACC <- ACC + DMEM[a]
5     XOR a   ACC <- ACC ^ DMEM[a]
6     JNZ a   if ACC != 0: PC <- a
7     OUT     out_port <- ACC, pulse out_valid
====  ======  ================================

Timing: 2 cycles per instruction (FETCH, EXEC); memory-reading
instructions take a third MEM cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl.builder import Module, Vec
from ..hdl.compiled import CompiledSimulator
from ..hdl.library import equals_const, increment, ripple_add
from ..hdl.netlist import Circuit
from ..hdl.simulator import SimulatorBase

OP_NOP, OP_LDI, OP_LD, OP_ST, OP_ADD, OP_XOR, OP_JNZ, OP_OUT = range(8)

_MNEMONICS = {"nop": OP_NOP, "ldi": OP_LDI, "ld": OP_LD, "st": OP_ST,
              "add": OP_ADD, "xor": OP_XOR, "jnz": OP_JNZ,
              "out": OP_OUT}

# FSM states
S_FETCH, S_EXEC, S_MEM = 0, 1, 2


def assemble(program) -> list[int]:
    """Assemble ``[("ldi", 5), ("st", 0), ...]`` into machine words."""
    words = []
    for entry in program:
        if isinstance(entry, int):
            words.append(entry & 0xFF)
            continue
        mnemonic, *operand = entry
        op = _MNEMONICS[mnemonic.lower()]
        arg = operand[0] if operand else 0
        if not 0 <= arg < 32:
            raise ValueError(f"operand out of range: {entry}")
        words.append((op << 5) | arg)
    return words


@dataclass(frozen=True)
class CpuConfig:
    """Structure of the mini CPU."""

    name: str = "minicpu"
    pc_bits: int = 5           # 32-word program memory
    addr_bits: int = 5         # 32-word data memory
    data_bits: int = 8
    lockstep: bool = False     # shadow core + comparator

    @classmethod
    def plain(cls, **kw) -> "CpuConfig":
        return cls(name=kw.pop("name", "minicpu_plain"), **kw)

    @classmethod
    def lockstep_pair(cls, **kw) -> "CpuConfig":
        return cls(name=kw.pop("name", "minicpu_lockstep"),
                   lockstep=True, **kw)


@dataclass
class _CoreSignals:
    """Architectural outputs of one core (compared in lock-step)."""

    pc: Vec
    acc: Vec
    dmem_addr: Vec
    dmem_wdata: Vec
    dmem_we: Vec
    out_reg: Vec
    out_valid: Vec


def _build_core(m: Module, cfg: CpuConfig, scope: str, instr: Vec,
                dmem_rdata: Vec, rst: Vec) -> _CoreSignals:
    """One accumulator core: 3-state FSM plus datapath.

    ``instr`` is the program-memory read port (stable through EXEC and
    MEM since the fetch address only changes when the PC advances);
    ``dmem_rdata`` is the data-memory read port (valid during MEM).
    """
    with m.scope(scope):
        state = m.declare_reg("state", 2, rst=rst)
        pc = m.declare_reg("pc", cfg.pc_bits, rst=rst)
        acc = m.declare_reg("acc", cfg.data_bits, rst=rst)
        out_reg = m.declare_reg("out_reg", cfg.data_bits, rst=rst)
        out_valid = m.declare_reg("out_valid", 1, rst=rst)

        in_fetch = equals_const(m, state, S_FETCH)
        in_exec = equals_const(m, state, S_EXEC)
        in_mem = equals_const(m, state, S_MEM)

        opcode = instr[5:8]
        operand = instr[0:5]
        is_ldi = equals_const(m, opcode, OP_LDI)
        is_st = equals_const(m, opcode, OP_ST)
        is_add = equals_const(m, opcode, OP_ADD)
        is_xor = equals_const(m, opcode, OP_XOR)
        is_jnz = equals_const(m, opcode, OP_JNZ)
        is_out = equals_const(m, opcode, OP_OUT)
        needs_mem = (equals_const(m, opcode, OP_LD) | is_add
                     | is_xor).named("needs_mem")

        # ---- next state --------------------------------------------
        nxt = m.const(S_FETCH, 2)
        nxt = m.mux(in_fetch, m.const(S_EXEC, 2), nxt)
        nxt = m.mux(in_exec,
                    m.mux(needs_mem, m.const(S_MEM, 2),
                          m.const(S_FETCH, 2)), nxt)
        m.connect_reg(state, nxt)

        # ---- program counter ----------------------------------------
        pc_inc, _ = increment(m, pc)
        taken = in_exec & is_jnz & acc.reduce_or()
        pc_next_exec = m.mux(taken, operand, pc_inc)
        done_exec = in_exec & ~needs_mem
        pc_next = pc
        pc_next = m.mux(done_exec, pc_next_exec, pc_next)
        pc_next = m.mux(in_mem, pc_inc, pc_next)
        m.connect_reg(pc, pc_next)

        # ---- accumulator ---------------------------------------------
        imm = operand.zext(cfg.data_bits)
        summed, _carry = ripple_add(m, acc, dmem_rdata)
        xored = acc ^ dmem_rdata
        mem_result = m.mux(is_add, summed,
                           m.mux(is_xor, xored, dmem_rdata))
        acc_next = acc
        acc_next = m.mux(in_exec & is_ldi, imm, acc_next)
        acc_next = m.mux(in_mem, mem_result, acc_next)
        m.connect_reg(acc, acc_next)

        # ---- data-memory interface ------------------------------------
        dmem_we = (in_exec & is_st).named("dmem_we")

        # ---- output port -----------------------------------------------
        do_out = in_exec & is_out
        m.connect_reg(out_reg, m.mux(do_out, acc, out_reg))
        m.connect_reg(out_valid, do_out)

    return _CoreSignals(pc=pc, acc=acc, dmem_addr=operand,
                        dmem_wdata=acc, dmem_we=dmem_we,
                        out_reg=out_reg, out_valid=out_valid)


def build_minicpu(cfg: CpuConfig) -> Circuit:
    """Elaborate the CPU (optionally as a lock-step pair)."""
    m = Module(cfg.name)
    rst = m.input("rst")
    imem_wdata = m.input("imem_wdata", 8)   # program-load port
    imem_waddr = m.input("imem_waddr", cfg.pc_bits)
    imem_we = m.input("imem_we")

    # cores consume the memories' read ports; memories consume the
    # master core's addresses — broken with forward vectors (memory
    # read data is a sequential source, so no combinational loop)
    instr = m.forward("instr", 8)
    dmem_rdata = m.forward("dmem_rdata", cfg.data_bits)

    core_a = _build_core(m, cfg, "core_a", instr, dmem_rdata, rst)
    core_b = _build_core(m, cfg, "core_b", instr, dmem_rdata, rst) \
        if cfg.lockstep else None

    with m.scope("imem"):
        imem_addr = m.mux(imem_we, imem_waddr, core_a.pc)
        rom_out = m.memory("rom", 1 << cfg.pc_bits, 8, imem_addr,
                           imem_wdata, imem_we)
    m.resolve(instr, rom_out)

    with m.scope("dmem"):
        ram_out = m.memory("ram", 1 << cfg.addr_bits, cfg.data_bits,
                           core_a.dmem_addr, core_a.dmem_wdata,
                           core_a.dmem_we)
    m.resolve(dmem_rdata, ram_out)

    # ---- lock-step comparator (sticky alarm) --------------------------
    if core_b is not None:
        with m.scope("lockstep"):
            mismatch = (core_a.pc.ne(core_b.pc)
                        | core_a.acc.ne(core_b.acc)
                        | core_a.dmem_we.ne(core_b.dmem_we)
                        | core_a.dmem_addr.ne(core_b.dmem_addr)
                        | core_a.dmem_wdata.ne(core_b.dmem_wdata)
                        | core_a.out_reg.ne(core_b.out_reg)
                        | core_a.out_valid.ne(core_b.out_valid))
            alarm = m.declare_reg("alarm", 1, rst=rst)
            m.connect_reg(alarm, alarm | mismatch)
        m.output("alarm_lockstep", alarm)

    m.output("pc", core_a.pc)
    m.output("acc", core_a.acc)
    m.output("out_port", core_a.out_reg)
    m.output("out_valid", core_a.out_valid)
    return m.build()


class MiniCpu:
    """Built CPU plus program-load and execution helpers."""

    def __init__(self, cfg: CpuConfig):
        self.cfg = cfg
        self.circuit = build_minicpu(cfg)

    # ------------------------------------------------------------------
    def idle(self, rst: int = 0) -> dict[str, int]:
        return {"rst": rst, "imem_wdata": 0, "imem_waddr": 0,
                "imem_we": 0}

    def simulator(self, program=None, data=None,
                  machines: int = 1) -> CompiledSimulator:
        sim = CompiledSimulator(self.circuit, machines=machines)
        if program is not None:
            sim.load_mem("imem/rom", assemble(program))
        if data is not None:
            sim.load_mem("dmem/ram", list(data))
        return sim

    def run(self, sim: SimulatorBase, cycles: int) -> list[int]:
        """Reset then run; returns the OUT-port values in order."""
        outputs: list[int] = []
        sim.step(self.idle(rst=1))
        sim.step(self.idle(rst=1))
        for _ in range(cycles):
            sim.step_eval(self.idle())
            if sim.output("out_valid"):
                outputs.append(sim.output("out_port"))
            sim.step_commit()
        return outputs

    def execute(self, program, data=None, cycles: int = 200,
                machines: int = 1):
        """Assemble, load, reset, run; returns (sim, out values)."""
        sim = self.simulator(program, data, machines=machines)
        outputs = self.run(sim, cycles)
        return sim, outputs
