"""Catalog of diagnostic techniques and their maximum claimable DC.

IEC 61508-2 Annex A (tables A.2-A.13) assesses state-of-the-art
fault-detection techniques against the maximum diagnostic coverage
"considered achievable": the norm uses three levels — low (60 %),
medium (90 %) and high (99 %).  The paper's §4 computes per-zone DDF
claims "by what accepted by the IEC norm (Annex 2, tables A.2-A.13,
where it is specified the maximum diagnostic coverage considered
achievable by a given technique)".

This module encodes the techniques relevant to the memory sub-system
case study plus the surrounding processing-unit/bus/clock entries, with
their table references.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class DcLevel(float, Enum):
    """The norm's three diagnostic-coverage claims."""

    LOW = 0.60
    MEDIUM = 0.90
    HIGH = 0.99

    @property
    def label(self) -> str:
        return self.name.lower()


class Target(str, Enum):
    """Component classes addressed by the Annex A tables."""

    PROCESSING_UNIT = "processing_unit"
    INVARIABLE_MEMORY = "invariable_memory"
    VARIABLE_MEMORY = "variable_memory"
    IO_UNITS = "io_units"
    DATA_PATHS = "data_paths"      # internal bus / interconnect
    POWER_SUPPLY = "power_supply"
    CLOCK = "clock"


@dataclass(frozen=True)
class Technique:
    """One diagnostic technique with its norm-accepted maximum DC."""

    key: str
    name: str
    target: Target
    max_dc: DcLevel
    table: str          # IEC 61508-2 table reference
    software: bool = False
    notes: str = ""

    @property
    def max_dc_value(self) -> float:
        return float(self.max_dc.value)


_CATALOG: dict[str, Technique] = {}


def _add(key, name, target, max_dc, table, software=False, notes=""):
    _CATALOG[key] = Technique(key, name, target, max_dc, table,
                              software, notes)


# --- variable memory (table A.6) --------------------------------------
_add("ram_test_checkerboard", "RAM test 'checkerboard' or 'march'",
     Target.VARIABLE_MEMORY, DcLevel.LOW, "A.6",
     software=True, notes="start-up / periodic software test")
_add("ram_test_walkpath", "RAM test 'walkpath'",
     Target.VARIABLE_MEMORY, DcLevel.MEDIUM, "A.6", software=True)
_add("ram_test_galpat", "RAM test 'galpat' or 'transparent galpat'",
     Target.VARIABLE_MEMORY, DcLevel.HIGH, "A.6", software=True)
_add("ram_test_abraham", "RAM test 'Abraham'",
     Target.VARIABLE_MEMORY, DcLevel.HIGH, "A.6", software=True)
_add("ram_parity", "RAM monitoring with parity bit",
     Target.VARIABLE_MEMORY, DcLevel.LOW, "A.6",
     notes="one parity bit per word")
_add("ram_ecc_hamming", "RAM monitoring with a modified Hamming code "
     "(SEC-DED ECC)",
     Target.VARIABLE_MEMORY, DcLevel.HIGH, "A.6",
     notes="highest-value technique per the paper's §2")
_add("ram_double_comparison", "Double RAM with hardware or software "
     "comparison and read/write test",
     Target.VARIABLE_MEMORY, DcLevel.HIGH, "A.6")

# --- invariable memory (table A.5) -------------------------------------
_add("rom_checksum", "Modified checksum", Target.INVARIABLE_MEMORY,
     DcLevel.LOW, "A.5", software=True)
_add("rom_signature_word", "Signature of one word (8-bit)",
     Target.INVARIABLE_MEMORY, DcLevel.MEDIUM, "A.5", software=True)
_add("rom_signature_double", "Signature of a double word (16-bit)",
     Target.INVARIABLE_MEMORY, DcLevel.HIGH, "A.5", software=True)
_add("rom_block_replication", "Block replication",
     Target.INVARIABLE_MEMORY, DcLevel.HIGH, "A.5")

# --- processing units (table A.4) ---------------------------------------
_add("cpu_self_test_sw", "Self-test by software: limited number of "
     "patterns (one channel)",
     Target.PROCESSING_UNIT, DcLevel.LOW, "A.4", software=True)
_add("cpu_self_test_walking", "Self-test by software: walking bit "
     "(one channel)",
     Target.PROCESSING_UNIT, DcLevel.MEDIUM, "A.4", software=True)
_add("cpu_self_test_hw", "Self-test supported by hardware (one channel)",
     Target.PROCESSING_UNIT, DcLevel.MEDIUM, "A.4")
_add("cpu_coded_processing", "Coded processing (one channel)",
     Target.PROCESSING_UNIT, DcLevel.HIGH, "A.4")
_add("cpu_reciprocal_comparison", "Reciprocal comparison by software "
     "between two processing units",
     Target.PROCESSING_UNIT, DcLevel.HIGH, "A.4", software=True)
_add("cpu_hw_redundancy", "HW redundancy (e.g. lock-step dual core)",
     Target.PROCESSING_UNIT, DcLevel.HIGH, "A.4")

# --- I/O units and interfaces (table A.13) -----------------------------
_add("io_test_pattern", "Test pattern (input/output units)",
     Target.IO_UNITS, DcLevel.HIGH, "A.13")
_add("io_code_protection", "Code protection for digital I/O",
     Target.IO_UNITS, DcLevel.MEDIUM, "A.13")
_add("io_multi_channel", "Multi-channel parallel output with comparison",
     Target.IO_UNITS, DcLevel.HIGH, "A.13")

# --- data paths / on-chip communication (table A.7) ---------------------
_add("bus_parity", "One-bit hardware redundancy (bus parity)",
     Target.DATA_PATHS, DcLevel.LOW, "A.7")
_add("bus_multibit_redundancy", "Multi-bit hardware redundancy (bus ECC)",
     Target.DATA_PATHS, DcLevel.MEDIUM, "A.7")
_add("bus_full_redundancy", "Complete hardware redundancy (dual bus)",
     Target.DATA_PATHS, DcLevel.HIGH, "A.7")
_add("bus_inspection", "Inspection using test patterns",
     Target.DATA_PATHS, DcLevel.HIGH, "A.7")
_add("bus_transmission_redundancy", "Transmission redundancy "
     "(repeated transfers)",
     Target.DATA_PATHS, DcLevel.MEDIUM, "A.7",
     notes="effective against transient faults only")

# --- clock (table A.10) -------------------------------------------------
_add("clock_watchdog_separate_base", "Watchdog with separate time base "
     "without time-window",
     Target.CLOCK, DcLevel.LOW, "A.10")
_add("clock_watchdog_time_window", "Watchdog with separate time base and "
     "time-window",
     Target.CLOCK, DcLevel.MEDIUM, "A.10")
_add("clock_logical_temporal", "Logical monitoring combined with temporal "
     "monitoring of the program sequence",
     Target.CLOCK, DcLevel.HIGH, "A.10")

# --- power supply (table A.9) -------------------------------------------
_add("power_overvoltage_shutoff", "Overvoltage protection with safety "
     "shut-off",
     Target.POWER_SUPPLY, DcLevel.LOW, "A.9")
_add("power_monitoring", "Voltage control (secondary) with safety shut-off "
     "or switch-over",
     Target.POWER_SUPPLY, DcLevel.HIGH, "A.9")


def technique(key: str) -> Technique:
    try:
        return _CATALOG[key]
    except KeyError:
        raise KeyError(f"unknown diagnostic technique {key!r}; known: "
                       f"{sorted(_CATALOG)}") from None


def techniques_for(target: Target) -> list[Technique]:
    return [t for t in _CATALOG.values() if t.target is target]


def max_dc_claim(key: str) -> float:
    """Maximum DC value claimable for a technique (0.60/0.90/0.99)."""
    return technique(key).max_dc_value


def clamp_claim(key: str, requested_dc: float) -> float:
    """Clamp a user DDF estimate to the norm-accepted maximum (§4)."""
    return min(requested_dc, max_dc_claim(key))
