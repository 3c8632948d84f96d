"""Campaign-health reporting: quarantined faults and metric bounds.

A quarantined fault is *missing evidence*, not a benign omission: the
campaign cannot claim anything about how the safety mechanisms would
have handled it.  IEC 61508 arguments must therefore bound the
claimed metrics pessimistically — every quarantined fault might have
been dangerous-undetected — while the optimistic bound (every
quarantined fault falls in the metric's best outcome class) shows how
much the quarantine actually costs.  Whatever the quarantined faults
would have done, the full-evidence metric lies inside the bounds.
This module computes those bounds and renders the per-zone quarantine
table that goes in the campaign report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tables import pct, render_kv, render_table

# outcome class names, mirrored from repro.faultinjection.manager —
# importing the manager here would be circular (the campaign modules
# import the reporting table helpers)
OUTCOME_SAFE = "safe"
OUTCOME_DETECTED_SAFE = "detected_safe"
OUTCOME_DD = "dangerous_detected"
OUTCOME_DU = "dangerous_undetected"


@dataclass
class QuarantineBounds:
    """Best/worst-case DC and safe-fraction under missing evidence.

    *Best* assumes every quarantined fault would have landed in the
    metric's best class: dangerous-detected for the DC, safe for the
    safe fraction; *worst* assumes every quarantined fault would have
    been dangerous-undetected.
    """

    measured: int          # faults with evidence
    quarantined: int       # faults without
    dc_measured: float
    dc_best: float
    dc_worst: float
    safe_measured: float
    safe_best: float
    safe_worst: float

    @property
    def clean(self) -> bool:
        return self.quarantined == 0


def quarantine_bounds(result, quarantined: int) -> QuarantineBounds:
    """Bound campaign DC / safe fraction given quarantined faults."""
    counts = result.outcomes()
    dd = counts[OUTCOME_DD]
    du = counts[OUTCOME_DU]
    safe = counts[OUTCOME_SAFE] + counts[OUTCOME_DETECTED_SAFE]
    measured = len(result.results)
    total = measured + quarantined
    dc_measured = result.measured_dc()
    dangerous = dd + du
    # best case: every quarantined fault was dangerous-detected
    dc_best = (dd + quarantined) / (dangerous + quarantined) \
        if dangerous + quarantined else dc_measured
    # worst case: every quarantined fault was dangerous-undetected
    dc_worst = dd / (dangerous + quarantined) \
        if dangerous + quarantined else dc_measured
    safe_measured = result.measured_safe_fraction()
    safe_best = (safe + quarantined) / total if total else 0.0
    safe_worst = safe / total if total else 0.0
    return QuarantineBounds(
        measured=measured, quarantined=quarantined,
        dc_measured=dc_measured, dc_best=dc_best, dc_worst=dc_worst,
        safe_measured=safe_measured, safe_best=safe_best,
        safe_worst=safe_worst)


@dataclass
class DegradedBounds:
    """Metric bounds of a ``--degraded`` campaign that skipped zones.

    A zone that no longer resolves against the netlist contributes no
    candidate faults, so the campaign's measured DC/SFF silently
    overstate what the evidence supports.  Degraded mode makes the
    loss explicit: the faults the skipped zones *would* have
    contributed are treated exactly like quarantined faults (missing
    evidence) and pushed through :func:`quarantine_bounds`.
    """

    bounds: QuarantineBounds
    skipped_zones: tuple[str, ...]
    faults_lost: int
    estimated: bool     # faults_lost was inferred, not counted

    @property
    def clean(self) -> bool:
        return not self.skipped_zones


def degraded_bounds(result, skipped_zones,
                    faults_lost: int | None = None) -> DegradedBounds:
    """Bound DC / safe fraction for a campaign that skipped zones.

    ``faults_lost`` is the number of candidate faults the skipped
    zones would have contributed; when unknown it is estimated from
    the campaign's own density (average measured faults per resolved
    zone, falling back to the fault-list default of 4 per zone).
    """
    skipped = tuple(skipped_zones)
    estimated = faults_lost is None
    if faults_lost is None:
        zone_results = result.by_zone()
        if zone_results:
            per_zone = max(1, round(len(result.results)
                                    / len(zone_results)))
        else:
            per_zone = 4
        faults_lost = per_zone * len(skipped)
    return DegradedBounds(
        bounds=quarantine_bounds(result, faults_lost),
        skipped_zones=skipped, faults_lost=faults_lost,
        estimated=estimated)


def render_degraded_health(degraded: DegradedBounds) -> str:
    """Render the lost-evidence section of a degraded campaign."""
    if degraded.clean:
        return ("degraded mode: no zones were skipped — results "
                "match a strict run")
    bounds = degraded.bounds
    source = ("estimated from campaign density" if degraded.estimated
              else "counted from the fault list")
    pairs = [
        ("zones skipped", len(degraded.skipped_zones)),
        ("faults lost", f"{degraded.faults_lost} ({source})"),
        ("faults with evidence", bounds.measured),
        ("DC (measured / worst-case)",
         f"{pct(bounds.dc_measured)} / {pct(bounds.dc_worst)}"),
        ("safe fraction (best / worst)",
         f"{pct(bounds.safe_best)} / {pct(bounds.safe_worst)}"),
    ]
    parts = [render_kv(pairs, title="Metric bounds under degraded "
                                    "evidence")]
    names = ", ".join(degraded.skipped_zones[:8])
    if len(degraded.skipped_zones) > 8:
        names += f", … ({len(degraded.skipped_zones) - 8} more)"
    parts.append(
        f"skipped zones (no evidence collected): {names}\n"
        f"claims about these zones are NOT supported by this "
        f"campaign; re-extract zones or fix the configuration to "
        f"restore full coverage")
    return "\n\n".join(parts)


def render_campaign_health(result, anomalies, health=None) -> str:
    """Render the quarantine section of a campaign report.

    ``anomalies`` is the supervisor's :class:`FaultAnomaly` list;
    ``health`` the optional :class:`CampaignHealth` counters.  With no
    anomalies the section is a single all-clear line.
    """
    if not anomalies:
        return ("campaign health: clean — every candidate fault "
                "produced evidence")

    by_zone: dict[str, list] = {}
    for anomaly in anomalies:
        by_zone.setdefault(anomaly.zone or "?", []).append(anomaly)

    zone_results = result.by_zone()
    rows = []
    for zone in sorted(set(by_zone) | set(zone_results)):
        zone_anomalies = by_zone.get(zone, [])
        if not zone_anomalies:
            continue
        kinds: dict[str, int] = {}
        for anomaly in zone_anomalies:
            kinds[anomaly.kind] = kinds.get(anomaly.kind, 0) + 1
        kind_text = ", ".join(f"{n}×{k}"
                              for k, n in sorted(kinds.items()))
        dd = du = 0
        for res in zone_results.get(zone, []):
            outcome = result.outcome_of(res)
            if outcome == OUTCOME_DD:
                dd += 1
            elif outcome == OUTCOME_DU:
                du += 1
        q = len(zone_anomalies)
        measured_dc = (f"{pct(dd / (dd + du))}"
                       if dd + du else "-")
        worst_dc = (f"{pct(dd / (dd + du + q))}"
                    if dd + du + q else "-")
        rows.append([zone, q, kind_text,
                     len(zone_results.get(zone, [])),
                     measured_dc, worst_dc])

    bounds = quarantine_bounds(result, len(anomalies))
    parts = [render_table(
        ["zone", "quarantined", "kinds", "measured", "zone DC",
         "worst-case DC"],
        rows, title="Quarantined faults by zone")]
    pairs = [
        ("faults with evidence", bounds.measured),
        ("faults quarantined", bounds.quarantined),
        ("DC (measured / worst-case)",
         f"{pct(bounds.dc_measured)} / {pct(bounds.dc_worst)}"),
        ("safe fraction (best / worst)",
         f"{pct(bounds.safe_best)} / {pct(bounds.safe_worst)}"),
    ]
    if health is not None:
        pairs.append(("engine failures",
                      f"{health.crashes} crash(es), "
                      f"{health.hangs} hang(s), "
                      f"{health.exceptions} exception(s)"))
    parts.append(render_kv(pairs, title="Metric bounds under "
                                        "quarantine"))
    names = ", ".join(a.fault_name for a in anomalies[:8])
    if len(anomalies) > 8:
        names += f", … ({len(anomalies) - 8} more)"
    parts.append(f"quarantined: {names}")
    return "\n\n".join(parts)
