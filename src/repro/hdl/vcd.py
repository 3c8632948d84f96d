"""Minimal VCD (value change dump) writer for golden-machine traces.

Debugging the gate-level subsystem (or any DSL-built design) is far
easier with waveforms.  :class:`VcdTracer` snapshots a chosen set of
signals every cycle and writes a standard VCD file readable by GTKWave
and friends.

Usage::

    sim = CompiledSimulator(circuit)
    tracer = VcdTracer(circuit, ["haddr", "hrdata", "alarm_ce"])
    for op in workload:
        sim.step_eval(op)
        tracer.sample(sim)
        sim.step_commit()
    tracer.write("trace.vcd")
"""

from __future__ import annotations

from .compiled import CompiledSimulator
from .netlist import Circuit
from .simulator import MemoryImageSetup, SimulatorBase

_ID_CHARS = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _identifier(index: int) -> str:
    chars = []
    index += 1
    while index:
        index, rem = divmod(index, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


class VcdTracer:
    """Samples named ports/nets each cycle and emits a VCD file."""

    def __init__(self, circuit: Circuit, signals=None, machine: int = 0,
                 timescale: str = "1 ns"):
        self.circuit = circuit
        self.machine = machine
        self.timescale = timescale
        if signals is None:
            signals = list(circuit.inputs) + list(circuit.outputs)
        self._signals: list[tuple[str, list[int], str]] = []
        for i, name in enumerate(signals):
            nets = self._resolve(name)
            self._signals.append((name, nets, _identifier(i)))
        self._changes: list[tuple[int, str, int, int]] = []
        self._last: dict[str, int | None] = {
            name: None for name, _, _ in self._signals}
        self._cycles = 0

    def _resolve(self, name: str) -> list[int]:
        if name in self.circuit.inputs:
            return list(self.circuit.inputs[name])
        if name in self.circuit.outputs:
            return list(self.circuit.outputs[name])
        return [self.circuit.find_net(name)]

    # ------------------------------------------------------------------
    def sample(self, sim: SimulatorBase) -> None:
        """Record the current (post-evaluation) values."""
        t = self._cycles
        for name, nets, ident in self._signals:
            value = sim.value_of(nets, machine=self.machine)
            if self._last[name] != value:
                self._changes.append((t, ident, value, len(nets)))
                self._last[name] = value
        self._cycles += 1

    # ------------------------------------------------------------------
    def dumps(self) -> str:
        out = [f"$timescale {self.timescale} $end",
               f"$scope module {self.circuit.name} $end"]
        for name, nets, ident in self._signals:
            kind = "wire"
            out.append(f"$var {kind} {len(nets)} {ident} "
                       f"{name.replace('/', '.')} $end")
        out.append("$upscope $end")
        out.append("$enddefinitions $end")

        current = -1
        for t, ident, value, width in self._changes:
            if t != current:
                out.append(f"#{t}")
                current = t
            if width == 1:
                out.append(f"{value}{ident}")
            else:
                out.append(f"b{value:b} {ident}")
        out.append(f"#{self._cycles}")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.dumps())


def trace_workload(circuit: Circuit, stimuli, signals=None,
                   setup: MemoryImageSetup | None = None) -> str:
    """Convenience: run a workload and return the VCD text."""
    sim = CompiledSimulator(circuit)
    if setup is not None:
        setup(sim)
    tracer = VcdTracer(circuit, signals)
    for inputs in stimuli:
        sim.step_eval(inputs)
        tracer.sample(sim)
        sim.step_commit()
    return tracer.dumps()
