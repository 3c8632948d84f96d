"""One FMEA spreadsheet row: (sensible zone, failure mode) with factors,
diagnostic claims and resulting failure rates (paper §3-4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..iec61508.metrics import FailureRates
from ..iec61508.techniques import clamp_claim, technique
from ..zones.model import FailureMode, FaultPersistence, ZoneKind
from .factors import FrequencyClass, SDFactors


@dataclass(frozen=True)
class DiagnosticClaim:
    """A Detected-Dangerous-Failure fraction claimed for a technique.

    ``claimed_ddf`` is the analyst's estimate; it is clamped to the
    norm-accepted maximum for the technique ("by what accepted by the
    IEC norm, Annex 2, tables A.2-A.13").  ``software`` distinguishes
    DDF due to SW techniques from HW techniques (the sheet keeps them
    separate); it defaults to the catalog's own classification.
    """

    technique_key: str
    claimed_ddf: float
    software: bool | None = None

    @property
    def effective_ddf(self) -> float:
        return clamp_claim(self.technique_key, self.claimed_ddf)

    @property
    def is_software(self) -> bool:
        if self.software is not None:
            return self.software
        return technique(self.technique_key).software


def combine_coverage(claims) -> float:
    """Union coverage of independent diagnostic techniques."""
    miss = 1.0
    for claim in claims:
        miss *= 1.0 - claim.effective_ddf
    return 1.0 - miss


@dataclass
class FmeaEntry:
    """A spreadsheet row.

    ``raw_fit`` is the failure rate computed from the extraction
    statistics and the elementary FIT model; ``measured_ddf`` is filled
    in by the fault-injection result analyzer (§5) and, when present,
    is reported next to the claimed value by the validation flow.
    """

    zone: str
    zone_kind: ZoneKind
    failure_mode: FailureMode
    raw_fit: float
    factors: SDFactors = field(default_factory=SDFactors)
    frequency: FrequencyClass = FrequencyClass.F1
    #: an architecturally-derived frequency class (start-up-only BIST,
    #: repair-window scrub registers) is a structural fact, not an
    #: assumption — the sensitivity analysis does not span it
    frequency_architectural: bool = False
    lifetime_cycles: float = 0.0
    claims: list[DiagnosticClaim] = field(default_factory=list)
    measured_ddf: float | None = None
    measured_safe_fraction: float | None = None
    notes: str = ""

    # ------------------------------------------------------------------
    @property
    def persistence(self) -> FaultPersistence:
        return self.failure_mode.persistence

    @property
    def safe_fraction(self) -> float:
        return self.factors.effective_safe_fraction(self.frequency)

    @property
    def ddf(self) -> float:
        """Combined claimed DDF over all techniques for this row."""
        return combine_coverage(self.claims)

    @property
    def ddf_hw(self) -> float:
        return combine_coverage(
            [c for c in self.claims if not c.is_software])

    @property
    def ddf_sw(self) -> float:
        return combine_coverage([c for c in self.claims if c.is_software])

    def rates(self) -> FailureRates:
        """λS / λDD / λDU of this row (in FIT)."""
        return FailureRates.split(self.raw_fit, self.safe_fraction,
                                  self.ddf)

    # ------------------------------------------------------------------
    def key(self) -> tuple[str, str]:
        return (self.zone, self.failure_mode.name)

    def validation_gap(self) -> float | None:
        """|claimed - measured| DDF, when a measurement exists."""
        if self.measured_ddf is None:
            return None
        return abs(self.ddf - self.measured_ddf)
