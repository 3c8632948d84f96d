"""AHB-style transaction master driving a subsystem simulator.

The bus protocol of the model (documented timing):

* a request (read or write) is presented for exactly one cycle;
* a write is captured into the write buffer at the end of that cycle
  and drains to the array one cycle later — software must leave one
  bus-idle cycle after a write before the next read (the drain owns the
  memory port);
* read data appears on ``hrdata`` with ``rvalid`` two cycles after the
  request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.simulator import SimulatorBase
from .subsystem import MemorySubsystem

WRITE_GAP = 2      # idle cycles after a write before the next access
READ_LATENCY = 2   # cycles from request to rvalid


@dataclass
class ReadResult:
    """Outcome of a bus read."""

    addr: int
    data: int
    valid: bool
    alarms: dict[str, int] = field(default_factory=dict)

    @property
    def any_alarm(self) -> bool:
        return any(self.alarms.values())


class AhbMaster:
    """Drives reads/writes and samples responses on the right cycle."""

    def __init__(self, subsystem: MemorySubsystem,
                 sim: SimulatorBase | None = None, scrub_en: int = 0,
                 mpu: int | None = None):
        self.sub = subsystem
        self.sim = sim if sim is not None else subsystem.simulator()
        self.scrub_en = scrub_en
        self.mpu = mpu
        self.alarm_log: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _kw(self) -> dict:
        kw = {"scrub_en": self.scrub_en}
        if self.mpu is not None:
            kw["mpu"] = self.mpu
        return kw

    def _sample_alarms(self) -> None:
        for name in self.sub.alarm_outputs():
            if self.sim.output(name):
                self.alarm_log.append((self.sim.cycle, name))

    def _step(self, inputs: dict) -> None:
        self.sim.step_eval(inputs)
        self._sample_alarms()
        self.sim.step_commit()

    def reset(self, cycles: int = 2) -> None:
        for _ in range(cycles):
            self._step(self.sub.reset_op(**self._kw()))

    def idle(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self._step(self.sub.idle(**self._kw()))

    def write(self, addr: int, data: int, gap: int = WRITE_GAP) -> None:
        self._step(self.sub.write(addr, data, **self._kw()))
        self.idle(gap)

    def read(self, addr: int) -> ReadResult:
        self._step(self.sub.read(addr, **self._kw()))
        for _ in range(READ_LATENCY - 1):
            self._step(self.sub.idle(**self._kw()))
        # sample during the rvalid cycle, then commit it
        self.sim.step_eval(self.sub.idle(**self._kw()))
        result = ReadResult(
            addr=addr,
            data=self.sim.output("hrdata"),
            valid=bool(self.sim.output("rvalid")),
            alarms={name: self.sim.output(name)
                    for name in self.sub.alarm_outputs()})
        for name, value in result.alarms.items():
            if value:
                self.alarm_log.append((self.sim.cycle, name))
        self.sim.step_commit()
        return result

    # ------------------------------------------------------------------
    def run_bist(self, max_cycles: int | None = None) -> bool:
        """Run the start-up BIST to completion; returns pass/fail."""
        budget = max_cycles or (4 * self.sub.cfg.depth + 32)
        self._step(self.sub.idle(bist_run=1, **self._kw()))
        for _ in range(budget):
            self.sim.step_eval(self.sub.idle(bist_run=1, **self._kw()))
            self._sample_alarms()
            done = self.sim.output("bist_done")
            fail = self.sim.output("alarm_bist")
            self.sim.step_commit()
            if done:
                return not fail
        raise RuntimeError("BIST did not complete within budget")

    def alarms_seen(self) -> set[str]:
        return {name for _, name in self.alarm_log}
