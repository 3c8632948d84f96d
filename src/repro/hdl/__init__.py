"""Gate-level hardware substrate: netlist IR, builder DSL, simulator."""

from .netlist import (
    Circuit,
    Flop,
    Gate,
    MemoryBlock,
    NetlistError,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_MUX,
    OP_NAMES,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    split_bit_suffix,
)
from .builder import Module, Vec
from .netgraph import NetGraph
from .compiled import (
    CompiledCircuit,
    CompiledSimulator,
    CompileError,
    compile_circuit,
    decompile,
)
from .simulator import (
    BRIDGE_AND,
    BRIDGE_DOMINANT,
    BRIDGE_OR,
    CycleBudgetExceeded,
)
from .verilog import (
    VerilogParseError,
    parse_verilog,
    parse_verilog_file,
    roundtrip,
    write_verilog,
)
from .vcd import VcdTracer, trace_workload
from .xprop import ResetReport, XSimulator, reset_coverage
from . import library

__all__ = [
    "Circuit", "Flop", "Gate", "MemoryBlock", "NetlistError",
    "Module", "Vec", "NetGraph", "library",
    "CompiledCircuit", "CompiledSimulator", "CompileError",
    "compile_circuit", "decompile",
    "BRIDGE_AND", "BRIDGE_DOMINANT", "BRIDGE_OR",
    "CycleBudgetExceeded",
    "VerilogParseError", "parse_verilog", "parse_verilog_file",
    "roundtrip", "write_verilog",
    "VcdTracer", "trace_workload",
    "ResetReport", "XSimulator", "reset_coverage",
    "OP_AND", "OP_BUF", "OP_CONST0", "OP_CONST1", "OP_MUX", "OP_NAMES",
    "OP_NAND", "OP_NOR", "OP_NOT", "OP_OR", "OP_XNOR", "OP_XOR",
    "split_bit_suffix",
]
