"""The simulator base class (name resolution, stepping, the watchdog)
and :class:`MemoryImageSetup`, a simulator setup as data.

A simulator evaluates a :class:`~repro.hdl.netlist.Circuit` cycle by
cycle for a fixed number of parallel *machines*: machine 0 is the
fault-free golden run, machines 1..N-1 carry injected faults, and one
pass of the netlist simulates them all.  The production engine is the
compiled :class:`~repro.hdl.compiled.CompiledSimulator`; the interpreted
big-int simulator it is held bit-identical to lives in the test suite
(``tests/simulator_oracle.py``).  Both share :class:`SimulatorBase`
and the bridging modes below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import NetlistError

BRIDGE_AND = "and"
BRIDGE_OR = "or"
BRIDGE_DOMINANT = "dominant"


class CycleBudgetExceeded(RuntimeError):
    """The simulation ran past its cycle budget (runaway watchdog).

    Raised from :meth:`SimulatorBase.step_eval` (and at the same cycle
    from the compiled kernel's cycle loop) once the simulator has
    already evaluated ``cycle_budget`` cycles.  Campaign engines treat
    it as a structured *hang* anomaly rather than a crash: the budget
    is the deterministic, in-process counterpart of the supervisor's
    wall-clock shard timeout.
    """


def _out_of_range(index, count: int, kind: str) -> NetlistError:
    return NetlistError(f"{kind} id {index} is out of range: the "
                        f"circuit has {count} {kind} id(s)")


class SimulatorBase:
    """Name resolution and stepping shared by the compiled
    :class:`~repro.hdl.compiled.CompiledSimulator` and the interpreted
    test oracle (``tests/simulator_oracle.py``).

    A subclass provides ``circuit``, ``full_mask``, ``cycle``,
    ``cycle_budget``, ``_flop_state`` (one entry per flop), the
    ``_flop_index``/``_mem_index``/``_net_index`` name tables and the
    ``set_input``/``_begin_cycle_events``/``eval_comb``/``clock_edge``
    steps.  Integer ids are range-checked: the compiled kernel's C loop
    reads the fault tables built from them unchecked.
    """

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _resolve_net(self, net) -> int:
        if not isinstance(net, str):
            if 0 <= net < self.circuit.num_nets:
                return int(net)
            raise _out_of_range(net, self.circuit.num_nets, "net")
        if self._net_index is None:
            self._net_index = {name: i for i, name
                               in enumerate(self.circuit.net_names)}
        try:
            return self._net_index[net]
        except KeyError:
            raise NetlistError(f"no net named {net!r}") from None

    def _resolve_flop(self, flop) -> int:
        if not isinstance(flop, str):
            if 0 <= flop < len(self._flop_state):
                return int(flop)
            raise _out_of_range(flop, len(self._flop_state), "flop")
        try:
            return self._flop_index[flop]
        except KeyError:
            raise NetlistError(f"no flop named {flop!r}") from None

    def _resolve_mem(self, mem) -> int:
        if not isinstance(mem, str):
            if 0 <= mem < len(self.circuit.memories):
                return int(mem)
            raise _out_of_range(mem, len(self.circuit.memories), "memory")
        try:
            return self._mem_index[mem]
        except KeyError:
            raise NetlistError(f"no memory named {mem!r}") from None

    def _mask(self, machines) -> int:
        if machines is None:
            return self.full_mask
        if isinstance(machines, int):
            return machines & self.full_mask
        mask = 0
        for k in machines:
            mask |= 1 << k
        return mask & self.full_mask

    def output(self, name: str, machine: int = 0) -> int:
        return self.value_of(self.circuit.outputs[name], machine)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, inputs: dict[str, int] | None = None) -> None:
        """One full clock cycle: inputs, events, evaluate, clock edge.

        Peeking at outputs should be done between :meth:`eval_comb` and
        :meth:`clock_edge`; use :meth:`step_eval` + :meth:`step_commit`
        when a testbench needs to react to outputs within the cycle.
        """
        self.step_eval(inputs)
        self.step_commit()

    def step_eval(self, inputs: dict[str, int] | None = None) -> None:
        self._check_budget()
        if inputs:
            self.set_inputs(inputs)
        self._begin_cycle_events()
        self.eval_comb()

    def step_commit(self) -> None:
        self.clock_edge()

    def set_inputs(self, inputs: dict[str, int]) -> None:
        """Drive every port of ``inputs`` (name -> value)."""
        for name, value in inputs.items():
            self.set_input(name, value)

    def _check_budget(self) -> None:
        if self.cycle_budget is not None and \
                self.cycle >= self.cycle_budget:
            raise CycleBudgetExceeded(
                f"simulation of {self.circuit.name!r} exceeded its "
                f"cycle budget of {self.cycle_budget} cycle(s)")


@dataclass
class MemoryImageSetup:
    """A simulator ``setup`` as plain data.

    Campaign setups in this repo load memory images (code preloads,
    program ROMs) and occasionally force flop state; both are held
    here as data, so a setup is picklable and content-addressable.
    The built-in designs build theirs with ``preload_image()``.
    """

    mem_images: dict[str, list[int]] = field(default_factory=dict)
    flop_values: dict[str, int] = field(default_factory=dict)

    def __call__(self, sim: SimulatorBase) -> None:
        for name, image in self.mem_images.items():
            sim.load_mem(name, image)
        for name, value in self.flop_values.items():
            sim.set_flop(name, value)
