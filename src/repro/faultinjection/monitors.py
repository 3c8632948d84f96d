"""SENS / OBSE / DIAG monitors and coverage collection (paper §5).

"In this context, coverage means a measure of the completeness of the
fault injection experiment.  It is measured how many times a fault
injection (SENS) is triggered by an injection, how many changes
occurred on the observation (OBSE), how many mismatches occurred
between faulty and golden DUT, how many times the diagnostic (DIAG)
changed and so forth.  Only when all the coverage items are covered at
100% we can consider complete the fault injection experiment."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..reporting.tables import pct, render_kv


@dataclass
class CoverageCollection:
    """Campaign-completeness ledger.

    * ``sens[zone]``: at least one injection in the zone actually
      perturbed its state;
    * ``obse[point]``: at least one deviation was measured at the
      observation point;
    * ``diag[alarm]``: the alarm asserted at least once during the
      campaign (attributable to a fault);
    * ``mismatches``: total golden/faulty mismatch events.
    """

    sens: dict[str, bool] = field(default_factory=dict)
    obse: dict[str, bool] = field(default_factory=dict)
    diag: dict[str, bool] = field(default_factory=dict)
    mismatches: int = 0
    injections: int = 0

    # ------------------------------------------------------------------
    def merge(self, other: "CoverageCollection") -> None:
        """OR-merge another campaign's ledger (steps a/c/d combine)."""
        for table, theirs in ((self.sens, other.sens),
                              (self.obse, other.obse),
                              (self.diag, other.diag)):
            for key, value in theirs.items():
                table[key] = table.get(key, False) or value
        self.mismatches += other.mismatches
        self.injections += other.injections

    def sens_coverage(self) -> float:
        return _ratio(self.sens)

    def obse_coverage(self) -> float:
        return _ratio(self.obse)

    def diag_coverage(self) -> float:
        return _ratio(self.diag)

    @property
    def complete(self) -> bool:
        return (self.sens_coverage() == 1.0
                and self.obse_coverage() == 1.0
                and self.diag_coverage() == 1.0)

    def uncovered(self) -> dict[str, list[str]]:
        return {
            "sens": [k for k, v in self.sens.items() if not v],
            "obse": [k for k, v in self.obse.items() if not v],
            "diag": [k for k, v in self.diag.items() if not v],
        }

    def report(self) -> str:
        pairs = [
            ("injections", self.injections),
            ("mismatch events", self.mismatches),
            ("SENS coverage", pct(self.sens_coverage())),
            ("OBSE coverage", pct(self.obse_coverage())),
            ("DIAG coverage", pct(self.diag_coverage())),
            ("complete", "yes" if self.complete else "no"),
        ]
        text = render_kv(pairs, title="=== injection coverage ===")
        holes = self.uncovered()
        for kind, items in holes.items():
            if items:
                text += f"\n  uncovered {kind}: {', '.join(items[:6])}"
                if len(items) > 6:
                    text += f" (+{len(items) - 6} more)"
        return text


def _ratio(table: dict[str, bool]) -> float:
    if not table:
        return 1.0
    return sum(1 for v in table.values() if v) / len(table)
