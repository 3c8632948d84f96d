"""Automatic worksheet construction from extraction results (§3-4).

"These coverage values are computed both based on the architecture, by
the numbers given by the previous described tool (concerning the
interconnections between sensible zones), by what accepted by the IEC
norm ... and by the estimation of the user."

A :class:`DiagnosticPlan` captures the user/architecture side: which
diagnostic technique covers which zones (by name pattern), with what
claimed DDF, for which failure-mode persistence.  The builder crosses
the extracted zones with the IEC failure-mode catalog, prices each row
with the FIT model, and attaches the matching diagnostic claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

from ..iec61508.failure_modes import failure_modes_for
from ..zones.extractor import ZoneSet
from ..zones.model import FaultPersistence, SensibleZone, ZoneKind
from .entry import DiagnosticClaim, FmeaEntry
from .factors import (
    FrequencyClass,
    SDFactors,
    default_factors,
    default_frequency,
)
from .fit import DEFAULT_FIT_MODEL, FitModel
from .worksheet import FmeaWorksheet

# Sub-block zones are an alternative, coarser view of logic already
# priced through the register cones; including both would double-count
# FIT.  Primary-input zones model board-level effects outside the SoC
# failure-rate budget.
DEFAULT_WORKSHEET_KINDS = (
    ZoneKind.REGISTER,
    ZoneKind.MEMORY,
    ZoneKind.PRIMARY_OUTPUT,
    ZoneKind.CRITICAL_NET,
    ZoneKind.LOGICAL,
)


@dataclass(frozen=True)
class CoverageRule:
    """Maps zones (by glob pattern) to a diagnostic technique claim."""

    pattern: str
    technique: str
    ddf: float
    persistence: str | None = None  # "transient" / "permanent" / both
    modes: tuple[str, ...] | None = None
    software: bool | None = None

    def covers(self, failure_mode) -> bool:
        """Whether the rule claims a failure mode of a zone its
        pattern matched."""
        if self.persistence is not None and \
                failure_mode.persistence.value != self.persistence:
            return False
        if self.modes is not None and \
                failure_mode.name not in self.modes:
            return False
        return True


@dataclass
class FactorRule:
    """Per-pattern override of S factors and frequency class.

    ``transient_factors`` / ``permanent_factors`` override ``factors``
    for the matching persistence — e.g. a one-cycle-lifetime buffer has
    a huge architectural safe fraction for transients (an SEU must land
    in the single live cycle) while its permanent-fault exposure is
    unchanged.
    """

    pattern: str
    factors: SDFactors | None = None
    frequency: FrequencyClass | None = None
    lifetime_cycles: float | None = None
    transient_factors: SDFactors | None = None
    permanent_factors: SDFactors | None = None


@dataclass
class DiagnosticPlan:
    """The diagnostic architecture expressed as coverage rules."""

    name: str = "plan"
    coverage: list[CoverageRule] = field(default_factory=list)
    factors: list[FactorRule] = field(default_factory=list)

    def cover(self, pattern: str, technique: str, ddf: float,
              persistence: str | None = None,
              modes: tuple[str, ...] | None = None,
              software: bool | None = None) -> "DiagnosticPlan":
        self.coverage.append(CoverageRule(pattern, technique, ddf,
                                          persistence, modes, software))
        return self

    def set_factors(self, pattern: str,
                    factors: SDFactors | None = None,
                    frequency: FrequencyClass | None = None,
                    lifetime_cycles: float | None = None,
                    transient_factors: SDFactors | None = None,
                    permanent_factors: SDFactors | None = None
                    ) -> "DiagnosticPlan":
        self.factors.append(FactorRule(pattern, factors, frequency,
                                       lifetime_cycles,
                                       transient_factors,
                                       permanent_factors))
        return self

    # ------------------------------------------------------------------
    def factors_for(self, zone: SensibleZone
                    ) -> tuple[SDFactors, SDFactors, FrequencyClass,
                               float, bool]:
        """One pass over the factor rules: the transient and permanent
        S factors, the frequency class, the lifetime and whether the
        frequency is an architectural derivation."""
        transient = permanent = default_factors(zone.kind)
        frequency = default_frequency(zone.kind)
        lifetime = 0.0
        freq_architectural = False
        for rule in self.factors:
            if fnmatch(zone.name, rule.pattern):
                if rule.factors is not None:
                    transient = permanent = rule.factors
                if rule.transient_factors is not None:
                    transient = rule.transient_factors
                if rule.permanent_factors is not None:
                    permanent = rule.permanent_factors
                if rule.frequency is not None:
                    frequency = rule.frequency
                    # plan rules encode architectural derivations
                    freq_architectural = True
                if rule.lifetime_cycles is not None:
                    lifetime = rule.lifetime_cycles
        return (transient, permanent, frequency, lifetime,
                freq_architectural)


def build_worksheet(zone_set: ZoneSet,
                    plan: DiagnosticPlan | None = None,
                    fit_model: FitModel = DEFAULT_FIT_MODEL,
                    kinds=DEFAULT_WORKSHEET_KINDS,
                    name: str = "fmea") -> FmeaWorksheet:
    """Cross zones with IEC failure modes into a priced worksheet.

    The transient FIT of a zone is shared across its transient failure
    modes and likewise for permanent modes, so the zone total always
    equals the FIT model's estimate regardless of how many modes the
    catalog lists.
    """
    plan = plan or DiagnosticPlan()
    sheet = FmeaWorksheet(name=name)
    kinds = set(kinds)

    for zone in zone_set.zones:
        if zone.kind not in kinds:
            continue
        t_fit, p_fit = fit_model.zone_fit(zone)
        modes = failure_modes_for(zone.kind)
        t_modes = [fm for fm in modes
                   if fm.persistence is FaultPersistence.TRANSIENT]
        p_modes = [fm for fm in modes
                   if fm.persistence is FaultPersistence.PERMANENT]
        if (t_fit > 0 and not t_modes) or (p_fit > 0 and not p_modes):
            raise ValueError(
                f"failure-mode catalog for {zone.kind.value} zones "
                f"cannot absorb the FIT of zone {zone.name!r} "
                f"(transient={t_fit:g}, permanent={p_fit:g}) — rates "
                f"would be silently dropped")
        t_factors, p_factors, frequency, lifetime, freq_arch = \
            plan.factors_for(zone)
        rules = [r for r in plan.coverage
                 if fnmatch(zone.name, r.pattern)]
        for fms, fit, factors in ((t_modes, t_fit, t_factors),
                                  (p_modes, p_fit, p_factors)):
            for fm in fms:
                sheet.add(FmeaEntry(
                    zone=zone.name, zone_kind=zone.kind,
                    failure_mode=fm, raw_fit=fit / len(fms),
                    factors=factors, frequency=frequency,
                    frequency_architectural=freq_arch,
                    lifetime_cycles=lifetime,
                    claims=[DiagnosticClaim(r.technique, r.ddf,
                                            r.software)
                            for r in rules if r.covers(fm)]))
    return sheet
