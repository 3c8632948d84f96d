"""Configuration of the §6 memory sub-system.

Two named design points reproduce the paper's experiment:

* **baseline** — SEC-DED with a standard modified-Hamming architecture,
  a write buffer and a pipeline stage in the decoder "to guarantee the
  timing closure" — the first implementation, whose SFF (~95 %) was not
  enough to reach SIL3;
* **improved** — the second implementation: addresses folded into the
  coding, parity bits on the write buffer, an error checker immediately
  after the coder, a double-redundant error checker after the decoder
  pipeline stage (with the no-error bypass), a distributed syndrome
  checking architecture, and SW start-up tests for the memory
  controller — SFF 99.38 %.

Every improvement is an independent flag so the ablation benchmark can
enable them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..ecc.address import AddressedSecDed
from ..ecc.hamming import SecDedCode


@dataclass(frozen=True)
class SubsystemConfig:
    """Structural and diagnostic-architecture parameters."""

    name: str = "memss"
    data_bits: int = 32
    addr_bits: int = 8
    mpu_pages: int = 4
    # §6 improvements (all False = baseline)
    address_in_ecc: bool = False
    write_buffer_parity: bool = False
    coder_checker: bool = False
    redundant_pipe_checker: bool = False
    distributed_syndrome: bool = False
    sw_startup_tests: bool = False
    scrub_parity: bool = False  # parity on the repair-engine registers
    # substrate features present in both variants
    with_scrubber: bool = True
    with_bist: bool = True

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return 1 << self.addr_bits

    @property
    def page_bits(self) -> int:
        return max(1, (self.mpu_pages - 1).bit_length())

    @cached_property
    def code(self):
        """The ECC in use: address-augmented for the improved design."""
        if self.address_in_ecc:
            return AddressedSecDed(self.data_bits, self.addr_bits)
        return SecDedCode(self.data_bits)

    @property
    def check_bits(self) -> int:
        return self.code.r

    @property
    def word_bits(self) -> int:
        """Memory word width: data plus check bits."""
        return self.data_bits + self.check_bits

    @property
    def is_improved(self) -> bool:
        return (self.address_in_ecc and self.write_buffer_parity
                and self.coder_checker and self.redundant_pipe_checker
                and self.distributed_syndrome)

    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, **overrides) -> "SubsystemConfig":
        return cls(name=overrides.pop("name", "memss_baseline"),
                   **overrides)

    @classmethod
    def improved(cls, **overrides) -> "SubsystemConfig":
        return cls(name=overrides.pop("name", "memss_improved"),
                   address_in_ecc=True, write_buffer_parity=True,
                   coder_checker=True, redundant_pipe_checker=True,
                   distributed_syndrome=True, sw_startup_tests=True,
                   scrub_parity=True, **overrides)

    @classmethod
    def small_baseline(cls, **overrides) -> "SubsystemConfig":
        """A reduced configuration for fast unit tests."""
        name = overrides.pop("name", "memss_small_baseline")
        return cls.baseline(name=name, data_bits=8, addr_bits=4,
                            **overrides)

    @classmethod
    def small_improved(cls, **overrides) -> "SubsystemConfig":
        name = overrides.pop("name", "memss_small_improved")
        return cls.improved(name=name, data_bits=8, addr_bits=4,
                            **overrides)

    def with_flags(self, **flags) -> "SubsystemConfig":
        """A copy with selected feature flags changed (for ablations)."""
        return replace(self, **flags)

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SubsystemConfig":
        from dataclasses import fields as _fields
        known = {f.name for f in _fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


#: the §6 improvement flags, in the order the paper introduces them
IMPROVEMENT_FLAGS = (
    "address_in_ecc",
    "write_buffer_parity",
    "coder_checker",
    "redundant_pipe_checker",
    "distributed_syndrome",
    "sw_startup_tests",
    "scrub_parity",
)

#: every boolean protection flag of :class:`SubsystemConfig`: the §6
#: improvements and the scrubber / BIST both variants carry
PROTECTION_FLAGS = IMPROVEMENT_FLAGS + ("with_scrubber", "with_bist")


@dataclass(frozen=True)
class BankedConfig:
    """A multi-bank memory sub-system: one channel per bank behind a
    shared bus, each bank individually configurable.

    This is the parametric scale knob of the benchmark design: the
    paper's sub-system has ~170 sensible zones, a single fmem channel
    ~90-140 depending on geometry — banking multiplies the zone count
    while keeping each bank's protection architecture independently
    tunable, which is exactly the shape design-space exploration
    needs (a mitigation applied to one bank leaves every other bank's
    support cones untouched, so the campaign store serves them warm).
    """

    name: str = "memss_banked"
    banks: tuple[SubsystemConfig, ...] = ()

    def __post_init__(self):
        if not self.banks:
            raise ValueError("BankedConfig needs at least one bank")
        first = self.banks[0]
        for cfg in self.banks[1:]:
            if (cfg.data_bits, cfg.addr_bits, cfg.mpu_pages) != \
                    (first.data_bits, first.addr_bits,
                     first.mpu_pages):
                raise ValueError(
                    "all banks must share data_bits/addr_bits/"
                    "mpu_pages (protection flags may differ)")

    # ------------------------------------------------------------------
    # facade geometry: what workloads and transaction helpers consume
    # ------------------------------------------------------------------
    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def bank_bits(self) -> int:
        return max(0, (self.n_banks - 1).bit_length())

    @property
    def bank_addr_bits(self) -> int:
        return self.banks[0].addr_bits

    @property
    def addr_bits(self) -> int:
        """Bus address width: bank-local address plus bank select."""
        return self.bank_addr_bits + self.bank_bits

    @property
    def depth(self) -> int:
        """Addressable words across all banks (bus view)."""
        return self.n_banks << self.bank_addr_bits

    @property
    def data_bits(self) -> int:
        return self.banks[0].data_bits

    @property
    def mpu_pages(self) -> int:
        return self.banks[0].mpu_pages

    @property
    def page_bits(self) -> int:
        return self.banks[0].page_bits

    @cached_property
    def word_bits(self) -> int:
        """Width of the shared ``err_inject`` test port.

        Deliberately the *maximum* over both ECC layouts — not the max
        over the current banks — so the port (and therefore every
        workload's stimuli) stays bit-identical when a bank's ECC flag
        toggles; cross-variant store reuse depends on stable stimuli.
        """
        base = self.banks[0]
        return base.data_bits + max(
            SecDedCode(base.data_bits).r,
            AddressedSecDed(base.data_bits, base.addr_bits).r)

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, cfg: SubsystemConfig, banks: int,
                name: str | None = None) -> "BankedConfig":
        """``banks`` identical channels of one base configuration."""
        return cls(name=name or f"{cfg.name}_x{banks}",
                   banks=tuple(replace(cfg, name=f"{cfg.name}_b{i}")
                               for i in range(banks)))

    def with_bank_flags(self, bank: int, **flags) -> "BankedConfig":
        """A copy with one bank's feature flags changed."""
        banks = list(self.banks)
        banks[bank] = banks[bank].with_flags(**flags)
        return replace(self, banks=tuple(banks))

    def with_flags(self, **flags) -> "BankedConfig":
        """A copy with every bank's feature flags changed."""
        return replace(self, banks=tuple(b.with_flags(**flags)
                                         for b in self.banks))

    @property
    def is_improved(self) -> bool:
        return all(b.is_improved for b in self.banks)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"name": self.name,
                "banks": [b.to_dict() for b in self.banks]}

    @classmethod
    def from_dict(cls, data: dict) -> "BankedConfig":
        return cls(name=data["name"],
                   banks=tuple(SubsystemConfig.from_dict(b)
                               for b in data["banks"]))
