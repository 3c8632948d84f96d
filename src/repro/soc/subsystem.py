"""Top-level assembly of the §6 memory sub-system (Figure 5).

The block diagram: AHB-side request decode + MPU (MCE), coder / write
buffer / pipelined decoder / scrubbing engine (F-MEM), BIST + port
arbitration + address latching (memory controller), and the memory
array itself.  :class:`MemorySubsystem` wraps the built circuit with
transaction helpers, the variant-specific diagnostic plan used by the
FMEA, and zone-extraction defaults.
"""

from __future__ import annotations

from ..fmea.builder import DiagnosticPlan, build_worksheet
from ..fmea.factors import FrequencyClass, SDFactors
from ..fmea.fit import DEFAULT_FIT_MODEL, FitModel
from ..fmea.worksheet import FmeaWorksheet
from ..hdl.builder import Module
from ..hdl.compiled import CompiledSimulator
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ExtractionConfig, ZoneSet, extract_zones
from .config import SubsystemConfig
from .fmem import (
    build_coder,
    build_decoder,
    build_write_buffer,
    connect_scrubber,
    declare_scrubber,
    scrub_requests,
)
from .mce import build_mce
from .memctrl import (
    build_bist,
    build_latch_pipeline,
    build_port_mux,
    finish_bist,
)


from dataclasses import dataclass as _dataclass


@_dataclass
class SubsystemPorts:
    """The input vectors one subsystem channel consumes."""

    haddr: object
    hwrite: object
    htrans: object
    hwdata: object
    mpu_cfg: object
    scrub_en: object
    bist_run: object
    bist_selftest: object
    err_inject: object
    rst: object

    @classmethod
    def declare(cls, m: Module, cfg: SubsystemConfig
                ) -> "SubsystemPorts":
        return cls(
            haddr=m.input("haddr", cfg.addr_bits),
            hwrite=m.input("hwrite"),
            htrans=m.input("htrans"),
            hwdata=m.input("hwdata", cfg.data_bits),
            mpu_cfg=m.input("mpu_cfg", cfg.mpu_pages),
            scrub_en=m.input("scrub_en"),
            bist_run=m.input("bist_run"),
            bist_selftest=m.input("bist_selftest"),
            err_inject=m.input("err_inject", cfg.word_bits),
            rst=m.input("rst"))


def build_subsystem(cfg: SubsystemConfig) -> Circuit:
    """Elaborate the memory sub-system into a gate-level circuit."""
    m = Module(cfg.name)
    ports = SubsystemPorts.declare(m, cfg)
    outputs = elaborate_channel(m, cfg, ports)
    for name, vec in outputs.items():
        m.output(name, vec)
    return m.build()


def elaborate_channel(m: Module, cfg: SubsystemConfig,
                      ports: SubsystemPorts) -> dict:
    """One subsystem instance; returns {output name: Vec}.

    Usable under an enclosing :meth:`Module.scope` — the dual-channel
    (HFT = 1) architecture instantiates this twice.
    """
    haddr = ports.haddr
    hwrite = ports.hwrite
    htrans = ports.htrans
    hwdata = ports.hwdata
    mpu_cfg = ports.mpu_cfg
    scrub_en = ports.scrub_en
    bist_run = ports.bist_run
    bist_selftest = ports.bist_selftest
    err_inject = ports.err_inject
    rst = ports.rst

    # ---- MCE: request decode + MPU -------------------------------------
    mce = build_mce(m, cfg, haddr, hwrite, htrans, hwdata, mpu_cfg)

    # ---- early declarations needed across blocks -----------------------
    with m.scope("fmem/wbuf"):
        wbuf_valid = m.declare_reg("valid", 1, rst=rst)
    scrub = declare_scrubber(m, cfg, rst)

    # ---- memory controller: BIST ---------------------------------------
    bist = build_bist(m, cfg, bist_run, rst, selftest=bist_selftest)

    # ---- scrub port requests (combinational, from declared state) ------
    scrub_sig = scrub_requests(m, cfg, scrub, scrub_en, htrans,
                               wbuf_valid, bist.active)

    # ---- write path: coder + write buffer -------------------------------
    coder_data = m.mux(scrub_sig.write_now, scrub.data, hwdata)
    coder_addr = m.mux(scrub_sig.write_now, scrub.cur_addr, haddr)
    encoding_now = mce.eff_write | scrub_sig.write_now
    coder = build_coder(m, cfg, coder_data, coder_addr, encoding_now)
    wbuf = build_write_buffer(m, cfg, coder_data, coder.check,
                              coder_addr, capture=encoding_now,
                              drain_gate=~bist.active,
                              valid_q=wbuf_valid, rst=rst,
                              err_inject=err_inject)

    # ---- port arbitration + memory array --------------------------------
    port = build_port_mux(m, cfg, bist, wbuf_valid, wbuf.addr, wbuf.word,
                          mce.read_req, haddr, scrub_sig.read_req,
                          scrub_sig.read_addr)
    with m.scope("memarray"):
        rdata = m.memory("array", cfg.depth, cfg.word_bits, port.addr,
                         port.wdata, port.we)
    finish_bist(m, bist, rdata)

    # ---- latch pipeline --------------------------------------------------
    # The address used by the decoder's syndrome check is latched from
    # the *bus side* (requested address), independent of the array
    # address lines — a stuck line between port mux and array therefore
    # fetches a word whose stored address signature disagrees with the
    # requested one (detectable when the address is in the ECC).
    check_addr = m.mux(mce.read_req, haddr, scrub_sig.read_addr)
    lp = build_latch_pipeline(m, cfg, check_addr, port.cpu_read_grant,
                              port.scrub_read_grant, rst)

    # ---- decoder ----------------------------------------------------------
    read_valid = lp.rv2 | lp.sv2
    dec = build_decoder(m, cfg, rdata, lp.addr_d1, lp.addr_d2, read_valid)

    # ---- scrub FSM closure --------------------------------------------------
    scrub_par_alarm = connect_scrubber(m, cfg, scrub, scrub_sig, dec,
                                       lp.sv2, lp.rv2, lp.addr_d2)

    # ---- outputs -------------------------------------------------------------
    # hrdata is qualified by rvalid: the bus master only samples read
    # data in the valid cycle, so pipeline contents in other cycles are
    # not observable failures (a spurious rvalid, however, exposes
    # whatever garbage is in flight — which is the dangerous case).
    outputs = {
        "hrdata": dec.data_out & lp.rv2.repeat(cfg.data_bits),
        "rvalid": lp.rv2,
        "alarm_ce": dec.single & read_valid,
        "alarm_ue": dec.double & read_valid,
        "alarm_mpu": mce.mpu_violation,
    }
    if cfg.with_bist:
        outputs["bist_done"] = bist.done
        outputs["alarm_bist"] = bist.fail
    if cfg.with_scrubber:
        outputs["scrub_busy"] = scrub_sig.busy
        outputs["scrub_fix"] = scrub_sig.fix_pulse
    if cfg.coder_checker:
        outputs["alarm_coder"] = coder.alarm
    if cfg.write_buffer_parity:
        outputs["alarm_wbuf"] = wbuf.alarm_parity
    if cfg.redundant_pipe_checker:
        outputs["alarm_pipe"] = dec.alarm_pipe
    if cfg.scrub_parity:
        outputs["alarm_scrub_par"] = scrub_par_alarm
    if cfg.distributed_syndrome:
        outputs["alarm_synd_data"] = dec.alarm_synd_data
        outputs["alarm_synd_check"] = dec.alarm_synd_check
        outputs["alarm_synd_addr"] = dec.alarm_synd_addr
    return outputs


class MemorySubsystem:
    """The built design plus transaction and analysis helpers."""

    def __init__(self, cfg: SubsystemConfig):
        self.cfg = cfg
        self.circuit = build_subsystem(cfg)
        self.code = cfg.code

    # ------------------------------------------------------------------
    # transaction helpers (one dict = one cycle of inputs)
    # ------------------------------------------------------------------
    def idle(self, scrub_en: int = 0, mpu: int | None = None,
             bist_run: int = 0, rst: int = 0, err_inject: int = 0,
             bist_selftest: int = 0) -> dict[str, int]:
        if mpu is None:
            mpu = (1 << self.cfg.mpu_pages) - 1
        return {"haddr": 0, "hwrite": 0, "htrans": 0, "hwdata": 0,
                "mpu_cfg": mpu, "scrub_en": scrub_en,
                "bist_run": bist_run, "rst": rst,
                "err_inject": err_inject,
                "bist_selftest": bist_selftest}

    def write(self, addr: int, data: int, **kw) -> dict[str, int]:
        op = self.idle(**kw)
        op.update({"haddr": addr, "hwrite": 1, "htrans": 1,
                   "hwdata": data})
        return op

    def read(self, addr: int, **kw) -> dict[str, int]:
        op = self.idle(**kw)
        op.update({"haddr": addr, "hwrite": 0, "htrans": 1})
        return op

    def reset_op(self, **kw) -> dict[str, int]:
        return self.idle(rst=1, **kw)

    # ------------------------------------------------------------------
    def encode_word(self, data: int, addr: int = 0) -> int:
        """The {check, data} memory word the coder would store."""
        if self.cfg.address_in_ecc:
            check = self.code.encode(data, addr)
        else:
            check = self.code.encode(data)
        return (check << self.cfg.data_bits) | data

    def preload_image(self, words: dict[int, int] | None = None
                      ) -> MemoryImageSetup:
        """The array holding encoded words (address -> data), valid
        codewords of 0 elsewhere, as a simulator setup."""
        image = [self.encode_word(0, a) for a in range(self.cfg.depth)]
        for addr, data in (words or {}).items():
            image[addr] = self.encode_word(data, addr)
        return MemoryImageSetup(mem_images={"memarray/array": image})

    def simulator(self, machines: int = 1) -> CompiledSimulator:
        sim = CompiledSimulator(self.circuit, machines=machines)
        # background-friendly default: array holds valid codewords
        self.preload_image()(sim)
        return sim

    def read_strobes(self) -> dict[str, str]:
        """Memory-name -> read-strobe net, for the operational profiler."""
        return {"memarray/array": "memctrl/port/read_any"}

    def alarm_outputs(self) -> list[str]:
        return [name for name in self.circuit.outputs
                if name.startswith("alarm_")]

    # ------------------------------------------------------------------
    # analysis defaults
    # ------------------------------------------------------------------
    def extraction_config(self) -> ExtractionConfig:
        return ExtractionConfig(
            register_slice_bits=4,
            critical_fanout=16,
            subblock_depth=2,
            memory_words_per_zone=max(1, self.cfg.depth // 32))

    def extract_zones(self, config: ExtractionConfig | None = None
                      ) -> ZoneSet:
        return extract_zones(self.circuit,
                             config or self.extraction_config())

    def diagnostic_plan(self) -> DiagnosticPlan:
        return make_diagnostic_plan(self.cfg)

    def worksheet(self, zone_set: ZoneSet | None = None,
                  fit_model: FitModel = DEFAULT_FIT_MODEL
                  ) -> FmeaWorksheet:
        zone_set = zone_set or self.extract_zones()
        return build_worksheet(zone_set, plan=self.diagnostic_plan(),
                               fit_model=fit_model, name=self.cfg.name)


class _PrefixedPlan(DiagnosticPlan):
    """DiagnosticPlan whose patterns are rebased under a scope prefix."""

    def __init__(self, prefix: str, name: str = "plan"):
        super().__init__(name=name)
        self._prefix = prefix

    def _rebase(self, pattern: str) -> str:
        if not self._prefix:
            return pattern
        # port-zone patterns keep their names (ports stay at the top)
        if pattern.startswith(("po:", "pi:")):
            return pattern
        if pattern.startswith("critical:"):
            return "critical:" + self._prefix + pattern[len("critical:"):]
        return self._prefix + pattern

    def cover(self, pattern, *args, **kw):
        return super().cover(self._rebase(pattern), *args, **kw)

    def set_factors(self, pattern, *args, **kw):
        return super().set_factors(self._rebase(pattern), *args, **kw)


def make_diagnostic_plan(cfg: SubsystemConfig,
                         prefix: str = "") -> DiagnosticPlan:
    """The DDF claims of the diagnostic architecture (§4).

    Claims follow the structure: what a zone's failures can be detected
    by, with values bounded by the IEC Annex A maxima.  The baseline
    plan only carries the SEC-DED claim on the array and the always-on
    MPU/BIST alarms; the improved plan adds the claims created by each
    §6 counter-measure.

    ``prefix`` rebases every zone pattern, so the same plan applies to
    a channel instantiated under a scope (the dual-channel subsystem).
    """
    plan = _PrefixedPlan(prefix, name=f"{cfg.name}-plan")

    # The array itself: SEC-DED is a 'high' (99 %) technique for data
    # errors; addressing errors are only covered when the address is
    # folded into the code.
    plan.cover("memarray/*", "ram_ecc_hamming", 0.99,
               modes=("dc_fault", "soft_error", "dynamic_crossover"))
    if cfg.address_in_ecc:
        plan.cover("memarray/*", "ram_ecc_hamming", 0.99,
                   modes=("addressing",))
    if cfg.with_bist:
        # start-up march/checkerboard: permanent faults only, low DC
        plan.cover("memarray/*", "ram_test_checkerboard", 0.60,
                   persistence="permanent")

    # Decoder stage A and the syndrome part of the pipe are
    # self-checking by construction (a corrupted syndrome mis-corrects
    # but raises alarm_ce): medium credit in both designs.
    plan.cover("fmem/decoder/pipe_synd*", "cpu_coded_processing", 0.90)
    plan.cover("fmem/decoder/stage_a*", "cpu_coded_processing", 0.75)

    if cfg.coder_checker:
        plan.cover("fmem/coder*", "cpu_hw_redundancy", 0.90)
    if cfg.redundant_pipe_checker:
        # the double-redundant post-pipe checker covers the data field
        # of the pipeline register and the correction network; the
        # piped syndrome itself is directly compared against the
        # recomputed one ("stale" check), so its corruption is detected
        plan.cover("fmem/decoder/pipe_data*", "cpu_hw_redundancy", 0.99)
        plan.cover("fmem/decoder/pipe_check*", "cpu_hw_redundancy", 0.99)
        plan.cover("fmem/decoder/pipe_synd*", "cpu_hw_redundancy", 0.99)
        plan.cover("fmem/decoder/stage_b*", "cpu_hw_redundancy", 0.95)
        plan.cover("fmem/decoder/post_check*", "cpu_hw_redundancy", 0.90)
        # a corrupted read-valid strobe exposes stale pipe contents —
        # whose address signature disagrees with the requested address,
        # so the post-pipe checks flag it
        plan.cover("memctrl/latch/rv*", "cpu_hw_redundancy", 0.85)
        plan.cover("memctrl/latch/sv*", "cpu_hw_redundancy", 0.85)
    if cfg.distributed_syndrome:
        plan.cover("fmem/decoder/synd_class*", "cpu_hw_redundancy", 0.85)
        plan.cover("po:hrdata", "io_code_protection", 0.90)
    if cfg.redundant_pipe_checker:
        # with the correction path itself verified by the redundant
        # checkers, single-bit corruption of the buffered word is
        # dependably corrected/flagged by the decoder at read-back —
        # the baseline gets no such credit because its decode logic is
        # unchecked (exactly §6's argument for the improvements)
        plan.cover("fmem/wbuf/data*", "ram_ecc_hamming", 0.90)
        plan.cover("fmem/wbuf/check*", "ram_ecc_hamming", 0.90)
        plan.cover("fmem/decoder/stage_a*", "cpu_hw_redundancy", 0.95)
        plan.cover("critical:*", "cpu_hw_redundancy", 0.85)
        plan.cover("fmem/wbuf/parity*", "cpu_hw_redundancy", 0.85)
        plan.cover("fmem/wbuf/err_mask*", "cpu_hw_redundancy", 0.80)
    if cfg.scrub_parity:
        plan.cover("fmem/scrub/data*", "bus_parity", 0.60)
        plan.cover("fmem/scrub/cur_addr*", "bus_parity", 0.60)
        plan.cover("fmem/scrub/pend_addr*", "bus_parity", 0.60)
    if cfg.write_buffer_parity:
        plan.cover("fmem/wbuf/*", "bus_parity", 0.60)
        plan.cover("fmem/wbuf/*", "bus_multibit_redundancy", 0.75)
    if cfg.address_in_ecc:
        # address latching registers are checked end-to-end by the
        # address signature in the syndrome
        plan.cover("memctrl/latch/addr_*", "bus_multibit_redundancy",
                   0.90)
        plan.cover("fmem/wbuf/addr*", "bus_multibit_redundancy", 0.90)
        plan.cover("critical:*", "bus_multibit_redundancy", 0.75)
    if cfg.sw_startup_tests:
        # "some SW start-up tests were identified for the memory
        # controller parts not covered by the memory protection IP"
        plan.cover("memctrl/*", "cpu_self_test_walking", 0.85,
                   persistence="permanent")
        plan.cover("mce/*", "cpu_self_test_walking", 0.85,
                   persistence="permanent")
        plan.cover("fmem/scrub/*", "cpu_self_test_walking", 0.85,
                   persistence="permanent")

    # BIST logic is exercised only at start-up (F4).  The scrub engine's
    # holding registers carry live data only during the few-cycle repair
    # window (lifetime ζ of a couple of cycles between capture and
    # write-back): their transient exposure is minimal — the paper's
    # frequency-class / lifetime mechanism exactly.
    plan.set_factors("memctrl/bist/*", frequency=FrequencyClass.F4)
    plan.set_factors("fmem/scrub/*", frequency=FrequencyClass.F4,
                     lifetime_cycles=3)
    # The write buffer holds live data for exactly one cycle (ζ = 1):
    # an SEU is dangerous only if it lands in that cycle, while hard
    # faults remain fully exposed.
    plan.set_factors("fmem/wbuf/*", lifetime_cycles=1,
                     transient_factors=SDFactors(architectural=0.90))
    # The MPU configuration register is re-loaded from the config port
    # every cycle: a bit flip survives a single cycle, so most of its
    # raw failures are architecturally safe.
    plan.set_factors("mce/mpu_cfg_reg",
                     factors=SDFactors(architectural=0.85))
    # alarm outputs: a failed alarm line is mostly 'safe' (false alarm)
    # but can mask detection — keep default factors elsewhere.
    plan.set_factors("po:alarm_*",
                     factors=SDFactors(architectural=0.70))
    return plan
