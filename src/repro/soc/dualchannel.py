"""Dual-channel (1oo2) memory sub-system — the HFT = 1 route of §2.

"With a HFT equal to zero, a SFF equal or greater than 99% is required
in order that the system or component can be granted with SIL3.  With a
HFT equal to one, the SFF should be greater than 90%."

The §6 improved design takes the first route (single channel,
SFF ≥ 99 %).  This module builds the *other* route the paper's §2
describes: two complete sub-system channels executing the same bus
traffic, with a hardware cross-comparator on the functional outputs
("double RAM with hardware or software comparison", IEC table A.6,
'high').  One channel may fail completely — the comparator exposes the
divergence — so the architecture claims HFT = 1 and needs only
SFF > 90 %, which even the *baseline* channel satisfies.
"""

from __future__ import annotations

from ..fmea.builder import DiagnosticPlan, build_worksheet
from ..fmea.fit import DEFAULT_FIT_MODEL, FitModel
from ..fmea.worksheet import FmeaWorksheet
from ..hdl.builder import Module
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ExtractionConfig, ZoneSet, extract_zones
from .config import SubsystemConfig
from .subsystem import (
    MemorySubsystem,
    SubsystemPorts,
    elaborate_channel,
    make_diagnostic_plan,
)

CHANNELS = ("cha", "chb")


def build_dual_channel(cfg: SubsystemConfig) -> Circuit:
    """Two channels on the same bus, cross-compared (1oo2)."""
    m = Module(f"{cfg.name}_1oo2")
    ports = SubsystemPorts.declare(m, cfg)

    outs = {}
    for channel in CHANNELS:
        with m.scope(channel):
            outs[channel] = elaborate_channel(m, cfg, ports)

    a, b = outs["cha"], outs["chb"]
    with m.scope("crosscmp"):
        diverged = (a["hrdata"].ne(b["hrdata"])
                    | a["rvalid"].ne(b["rvalid"]))
        alarm = m.declare_reg("alarm", 1, rst=ports.rst)
        m.connect_reg(alarm, alarm | diverged)

    # channel A provides the mission outputs; channel B is the monitor
    for name, vec in a.items():
        m.output(name, vec)
    m.output("alarm_cross", alarm)
    # channel B's own diagnostics stay observable (prefixed)
    for name, vec in b.items():
        if name.startswith("alarm_"):
            m.output(f"chb_{name}", vec)
    return m.build()


def make_dual_plan(cfg: SubsystemConfig) -> DiagnosticPlan:
    """Per-channel plans rebased under their scopes, plus the 1oo2
    cross-comparison claim on both channels' logic."""
    plan = DiagnosticPlan(name=f"{cfg.name}-1oo2-plan")
    for channel in CHANNELS:
        sub_plan = make_diagnostic_plan(cfg, prefix=f"{channel}/")
        plan.coverage.extend(sub_plan.coverage)
        plan.factors.extend(sub_plan.factors)
        # anything that corrupts one channel's mission outputs is
        # caught by the cross-comparator ("double RAM with hardware
        # comparison", table A.6: high)
        plan.cover(f"{channel}/*", "ram_double_comparison", 0.99)
        plan.cover(f"critical:{channel}/*", "ram_double_comparison",
                   0.99)
    return plan


class DualChannelSubsystem:
    """The 1oo2 pair with analysis helpers (mirrors MemorySubsystem)."""

    #: the architecture tolerates one failed channel
    hft = 1

    def __init__(self, cfg: SubsystemConfig | None = None):
        self.cfg = cfg or SubsystemConfig.baseline(
            name="memss_dual_baseline")
        self.circuit = build_dual_channel(self.cfg)
        self._single = MemorySubsystem(self.cfg)

    # ------------------------------------------------------------------
    def idle(self, **kw) -> dict[str, int]:
        return self._single.idle(**kw)

    def write(self, addr: int, data: int, **kw) -> dict[str, int]:
        return self._single.write(addr, data, **kw)

    def read(self, addr: int, **kw) -> dict[str, int]:
        return self._single.read(addr, **kw)

    def reset_op(self, **kw) -> dict[str, int]:
        return self._single.reset_op(**kw)

    def encode_word(self, data: int, addr: int = 0) -> int:
        return self._single.encode_word(data, addr)

    def preload_image(self, words: dict[int, int] | None = None
                      ) -> MemoryImageSetup:
        """Both channels' arrays holding the same encoded words."""
        image = self._single.preload_image(words).mem_images[
            "memarray/array"]
        return MemoryImageSetup(mem_images={
            f"{channel}/memarray/array": list(image)
            for channel in CHANNELS})

    simulator = MemorySubsystem.simulator

    def alarm_outputs(self) -> list[str]:
        return [name for name in self.circuit.outputs
                if "alarm" in name]

    # ------------------------------------------------------------------
    def extraction_config(self) -> ExtractionConfig:
        base = self._single.extraction_config()
        return ExtractionConfig(
            register_slice_bits=base.register_slice_bits,
            critical_fanout=base.critical_fanout,
            subblock_depth=base.subblock_depth + 1,
            memory_words_per_zone=base.memory_words_per_zone)

    def extract_zones(self) -> ZoneSet:
        return extract_zones(self.circuit, self.extraction_config())

    def worksheet(self, zone_set: ZoneSet | None = None,
                  fit_model: FitModel = DEFAULT_FIT_MODEL
                  ) -> FmeaWorksheet:
        zone_set = zone_set or self.extract_zones()
        return build_worksheet(zone_set, plan=make_dual_plan(self.cfg),
                               fit_model=fit_model,
                               name=self.circuit.name)
