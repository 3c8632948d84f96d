"""Self-FMEA worksheet: the infrastructure's own failure modes.

The paper's worksheet discipline applied to the store/queue/daemon
stack: one row per enumerated failure mode with its effect, the
*named* detection mechanism, the *named* recovery mechanism, and a
verdict — ``VERIFIED`` only when the crash-consistency harness
actually fired the failpoint and every invariant check passed.
Rendered by ``soc-fmea chaos`` (tables via
:mod:`repro.reporting.chaos`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harness import ChaosScenario, ScenarioResult, scenarios

VERDICT_VERIFIED = "VERIFIED"
VERDICT_FAILED = "FAILED"
VERDICT_NOT_RUN = "not run"


@dataclass
class WorksheetRow:
    """One failure mode of the self-FMEA worksheet."""

    scenario: ChaosScenario
    verdict: str = VERDICT_NOT_RUN
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        s = self.scenario
        return {
            "failure_mode": s.failure_mode,
            "failpoint": s.failpoint,
            "kind": s.kind,
            "spec": s.spec,
            "mode": s.mode,
            "effect": s.effect,
            "detection": s.detection,
            "recovery": s.recovery,
            "verdict": self.verdict,
            "failures": list(self.failures),
            "seconds": round(self.seconds, 2),
        }


@dataclass
class Worksheet:
    rows: list[WorksheetRow]

    @property
    def verified(self) -> int:
        return sum(1 for r in self.rows
                   if r.verdict == VERDICT_VERIFIED)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows
                   if r.verdict.startswith(VERDICT_FAILED))

    @property
    def not_run(self) -> int:
        return sum(1 for r in self.rows
                   if r.verdict == VERDICT_NOT_RUN)

    @property
    def ok(self) -> bool:
        """Every *executed* row verified (filtered runs leave
        ``not run`` rows, which don't fail the report)."""
        return self.failed == 0

    def as_dict(self) -> dict:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "verified": self.verified,
            "failed": self.failed,
            "not_run": self.not_run,
            "ok": self.ok,
        }


def build_worksheet(results: list[ScenarioResult],
                    all_rows: bool = True) -> Worksheet:
    """Merge harness results into the enumerated worksheet.

    With ``all_rows`` every enumerated failure mode appears even when
    it was filtered out of this run (verdict ``not run``), so a
    partial sweep can never masquerade as full coverage.
    """
    by_key = {r.scenario.key: r for r in results}
    base = scenarios() if all_rows \
        else [r.scenario for r in results]
    rows = []
    for scenario in base:
        result = by_key.get(scenario.key)
        row = WorksheetRow(scenario)
        if result is not None:
            row.seconds = result.seconds
            if result.verified:
                row.verdict = VERDICT_VERIFIED
            else:
                row.failures = [
                    f"{c.name}: {c.detail}".strip(": ")
                    for c in result.failures]
                row.verdict = (f"{VERDICT_FAILED} "
                               f"({len(row.failures)} check(s))")
        rows.append(row)
    return Worksheet(rows)
