"""Multi-bank memory sub-system — the parametric scale knob.

The paper's FMEA covers a sub-system with ~170 sensible zones; one
fmem channel extracts ~90-140 depending on geometry.  This module
banks N channels behind one shared bus: the top address bits select a
bank, each bank is a complete channel (MCE + F-MEM + memory controller
+ array) with its own protection flags, its own alarms and its own
read-data lane observed by the safety island.

Two properties matter for design-space exploration:

* **independent tuning** — every bank carries its own
  :class:`~repro.soc.config.SubsystemConfig`, so a mitigation
  transform applies per bank (per group of zones), like the paper's
  per-IP decisions;
* **structural locality** — bank logic only fans out to that bank's
  outputs, and only fans in from the shared bus.  A transform applied
  to bank *k* therefore changes nothing in any other bank's support
  cones, preloaded state or reachable observation points — the
  content-addressed campaign store serves every untouched bank warm.
"""

from __future__ import annotations

from dataclasses import replace

from ..fmea.builder import DiagnosticPlan, build_worksheet
from ..fmea.fit import DEFAULT_FIT_MODEL, FitModel
from ..fmea.worksheet import FmeaWorksheet
from ..hdl.builder import Module
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ExtractionConfig, ZoneSet, extract_zones
from .config import BankedConfig
from .subsystem import (
    MemorySubsystem,
    SubsystemPorts,
    elaborate_channel,
    make_diagnostic_plan,
)


def bank_scope(bank: int) -> str:
    return f"bank{bank}"


def build_banked(bcfg: BankedConfig) -> Circuit:
    """Elaborate the banked sub-system into one gate-level circuit."""
    m = Module(bcfg.name)
    haddr = m.input("haddr", bcfg.addr_bits)
    hwrite = m.input("hwrite")
    htrans = m.input("htrans")
    hwdata = m.input("hwdata", bcfg.data_bits)
    mpu_cfg = m.input("mpu_cfg", bcfg.mpu_pages)
    scrub_en = m.input("scrub_en")
    bist_run = m.input("bist_run")
    bist_selftest = m.input("bist_selftest")
    # the test port is sized for the widest ECC layout (see
    # BankedConfig.word_bits) so its width never changes under a
    # per-bank flag flip; narrower banks consume a slice
    err_inject = m.input("err_inject", bcfg.word_bits)
    rst = m.input("rst")

    local = haddr[:bcfg.bank_addr_bits]
    sel_bits = haddr[bcfg.bank_addr_bits:]
    for k, cfg in enumerate(bcfg.banks):
        with m.scope(bank_scope(k)):
            if bcfg.bank_bits:
                with m.scope("busdec"):
                    sel = sel_bits.eq(m.const(k, bcfg.bank_bits))
                    trans_k = (htrans & sel).named("trans")
            else:
                trans_k = htrans
            ports = SubsystemPorts(
                haddr=local, hwrite=hwrite, htrans=trans_k,
                hwdata=hwdata, mpu_cfg=mpu_cfg, scrub_en=scrub_en,
                bist_run=bist_run, bist_selftest=bist_selftest,
                err_inject=err_inject[:cfg.word_bits], rst=rst)
            outs = elaborate_channel(m, cfg, ports)
        for name, vec in outs.items():
            m.output(f"{bank_scope(k)}_{name}", vec)
    return m.build()


def make_banked_plan(bcfg: BankedConfig) -> DiagnosticPlan:
    """Per-bank diagnostic plans rebased under their scopes.

    Logic patterns get the ``bankN/`` scope prefix (the
    :class:`~repro.soc.subsystem._PrefixedPlan` mechanism); primary-
    output patterns are rewritten to the banked port names
    (``po:hrdata`` → ``po:bankN_hrdata``) because output ports live at
    the top level under per-bank names.
    """
    plan = DiagnosticPlan(name=f"{bcfg.name}-plan")
    for k, cfg in enumerate(bcfg.banks):
        prefix = f"{bank_scope(k)}_"
        sub = make_diagnostic_plan(cfg, prefix=f"{bank_scope(k)}/")

        def rebase_ports(rule):
            if rule.pattern.startswith("po:"):
                return replace(rule,
                               pattern="po:" + prefix
                               + rule.pattern[len("po:"):])
            return rule

        plan.coverage.extend(rebase_ports(r) for r in sub.coverage)
        plan.factors.extend(rebase_ports(r) for r in sub.factors)
    return plan


class BankedMemorySubsystem:
    """The banked design plus transaction and analysis helpers.

    Mirrors :class:`~repro.soc.subsystem.MemorySubsystem`: the ``cfg``
    facade exposes bus-level geometry (``depth`` is the total address
    space, ``addr_bits`` the bus address width), so every workload
    generator drives the banked design unchanged.
    """

    def __init__(self, cfg: BankedConfig):
        self.cfg = cfg
        self.circuit = build_banked(cfg)

    # transaction helpers: identical input dictionaries, wider haddr
    idle = MemorySubsystem.idle
    write = MemorySubsystem.write
    read = MemorySubsystem.read
    reset_op = MemorySubsystem.reset_op
    # the shared helpers load this design's preload_image()
    simulator = MemorySubsystem.simulator

    # ------------------------------------------------------------------
    def split_addr(self, addr: int) -> tuple[int, int]:
        """Bus address -> (bank index, bank-local address)."""
        return (addr >> self.cfg.bank_addr_bits,
                addr & ((1 << self.cfg.bank_addr_bits) - 1))

    def encode_word(self, data: int, addr: int = 0) -> int:
        """The stored word for a *bus* address, per that bank's ECC."""
        bank, local = self.split_addr(addr)
        cfg = self.cfg.banks[bank]
        if cfg.address_in_ecc:
            check = cfg.code.encode(data, local)
        else:
            check = cfg.code.encode(data)
        return (check << cfg.data_bits) | data

    def preload_image(self, words: dict[int, int] | None = None
                      ) -> MemoryImageSetup:
        """Every bank's array holding encoded words (bus address ->
        data), valid codewords of 0 elsewhere, as a simulator setup."""
        bank_depth = 1 << self.cfg.bank_addr_bits
        images = {}
        for k in range(self.cfg.n_banks):
            base = k << self.cfg.bank_addr_bits
            images[k] = [self.encode_word(0, base + a)
                         for a in range(bank_depth)]
        for addr, data in (words or {}).items():
            bank, local = self.split_addr(addr)
            images[bank][local] = self.encode_word(data, addr)
        return MemoryImageSetup(mem_images={
            f"{bank_scope(k)}/memarray/array": image
            for k, image in images.items()})

    def read_strobes(self) -> dict[str, str]:
        return {f"{bank_scope(k)}/memarray/array":
                f"{bank_scope(k)}/memctrl/port/read_any"
                for k in range(self.cfg.n_banks)}

    def alarm_outputs(self) -> list[str]:
        return [name for name in self.circuit.outputs
                if "alarm_" in name]

    # ------------------------------------------------------------------
    # analysis defaults
    # ------------------------------------------------------------------
    def extraction_config(self) -> ExtractionConfig:
        bank_depth = 1 << self.cfg.bank_addr_bits
        return ExtractionConfig(
            register_slice_bits=4,
            critical_fanout=16,
            # one level deeper than the single channel: sub-blocks are
            # bankN/fmem/wbuf, not bankN/fmem
            subblock_depth=3,
            memory_words_per_zone=max(1, bank_depth // 32))

    def extract_zones(self, config: ExtractionConfig | None = None
                      ) -> ZoneSet:
        return extract_zones(self.circuit,
                             config or self.extraction_config())

    def diagnostic_plan(self) -> DiagnosticPlan:
        return make_banked_plan(self.cfg)

    def worksheet(self, zone_set: ZoneSet | None = None,
                  fit_model: FitModel = DEFAULT_FIT_MODEL
                  ) -> FmeaWorksheet:
        zone_set = zone_set or self.extract_zones()
        return build_worksheet(zone_set, plan=self.diagnostic_plan(),
                               fit_model=fit_model, name=self.cfg.name)


def bank_of_zone(zone_name: str) -> int | None:
    """The bank a zone name belongs to, or ``None`` for shared logic.

    Handles every extracted shape: ``bank0/fmem/...`` register and
    memory slices, ``block:bank0/...`` sub-blocks,
    ``critical:bank0/...`` nets, and ``po:bank0_*`` port zones (input
    ports are shared — ``None``).
    """
    name = zone_name
    for head in ("block:", "critical:"):
        if name.startswith(head):
            name = name[len(head):]
            break
    if name.startswith("po:"):
        name = name[len("po:"):]
        if name.startswith("bank") and "_" in name:
            digits = name[len("bank"):name.index("_")]
            return int(digits) if digits.isdigit() else None
        return None
    if name.startswith("bank") and "/" in name:
        digits = name[len("bank"):name.index("/")]
        return int(digits) if digits.isdigit() else None
    return None
