"""The exploration dossier: frontier, recommendation, evidence.

Ranks the Pareto front, recommends the cheapest configuration meeting
the SIL target, and backs the recommendation with per-zone ΔSFF
evidence (which zones the accepted mitigations de-risked, by how much)
plus the store-backed lineage of every evaluated variant — run ids,
warm-hit counts and the faults actually simulated versus what cold
per-variant campaigns would have cost.
"""

from __future__ import annotations

from ..iec61508.sil import required_sff
from ..reporting.tables import pct, render_kv, render_table
from .search import ExplorationResult
from .transforms import TRANSFORM_LIBRARY

RULE = "=" * 70


def _point_label(evaluated) -> str:
    name = evaluated.point.name
    return name if len(name) <= 44 else name[:41] + "..."


def _sil(evaluated, hft: int) -> str:
    granted = evaluated.sil_at(hft)
    return granted.name if granted else "none"


def zone_sff_deltas(before: dict[str, float], after: dict[str, float],
                    top: int = 10) -> list[tuple[str, float, float]]:
    """Per-zone (λDU before, λDU after) movements, biggest first, of
    two zone → λDU (FIT) maps (:attr:`PointRecord.lambda_du`).

    λDU is the quantity that erodes the SFF, so "this zone's
    dangerous-undetected rate fell from X to Y FIT" is the per-zone
    evidence behind an SFF delta.  Zones are matched by name; a zone
    whose protection changed its shape (e.g. parity registers added)
    contributes its full before/after rate.
    """
    rows = []
    for zone in set(before) | set(after):
        du_b = before.get(zone, 0.0)
        du_a = after.get(zone, 0.0)
        if abs(du_b - du_a) > 1e-12:
            rows.append((zone, du_b, du_a))
    # equal deltas (per-bank twins) tie-break on the zone name, so the
    # order and the ``top`` cut never follow the set's hash order
    rows.sort(key=lambda r: (-(r[1] - r[2]), r[0]))
    return rows[:top]


def render_explore_dossier(result: ExplorationResult) -> str:
    """The full exploration dossier text."""
    config = result.config
    parts: list[str] = [RULE,
                        f"EXPLORATION DOSSIER — {config.variant} "
                        f"x{config.banks} banks",
                        RULE]

    # 1. the search
    parts.append(render_kv([
        ("target", f"SFF >= {pct(config.target_sff, 0)} "
                   f"(SIL3 @ HFT={config.hft} needs "
                   f"{pct(required_sff_safe(config), 0)})"),
        ("campaign budget", config.budget),
        ("points evaluated", len(result.evaluations)),
        ("candidate steps considered", result.steps_considered),
        ("workload", "full" if config.full else "quick"),
    ], title="\n1. search setup"))

    # 2. evaluation trace
    rows = []
    for i, ev in enumerate(result.evaluations):
        rows.append([
            i, _point_label(ev), ev.cost.scalar,
            pct(ev.claimed_sff),
            pct(ev.measured_dc) if ev.measured_dc is not None
            else "n/a",
            f"{ev.hits}/{ev.hits + ev.misses}",
            _sil(ev, config.hft),
        ])
    parts.append(render_table(
        ["#", "design point", "cost", "claimed SFF", "measured DC",
         "warm", "SIL"],
        rows, title="\n2. evaluation trace (store-backed lineage)"))

    # 3. the Pareto front
    rows = []
    for ev in result.front.points():
        marker = ""
        if result.recommended is not None and \
                ev.point == result.recommended.point:
            marker = " <= recommended"
        rows.append([_point_label(ev), ev.cost.scalar,
                     pct(ev.claimed_sff), _sil(ev, config.hft) + marker])
    parts.append(render_table(
        ["design point", "cost", "claimed SFF", "SIL"],
        rows, title="\n3. Pareto front (cost vs SFF, non-dominated)"))

    # 4. recommendation
    parts.append("\n4. recommendation")
    if result.recommended is None:
        parts.append("   no point evaluated — nothing to recommend")
    else:
        rec = result.recommended
        verdict = "MEETS TARGET" if result.target_met else \
            "TARGET NOT MET (best available)"
        applied = [
            f"bank {bank}: {TRANSFORM_LIBRARY[key].title}"
            for bank, key in rec.point.applied] or ["(base design)"]
        parts.append(render_kv([
            ("recommended", rec.point.name),
            ("verdict", verdict),
            ("claimed SFF", pct(rec.claimed_sff)),
            ("SIL @ HFT=%d" % config.hft, _sil(rec, config.hft)),
            ("structural cost",
             f"{rec.cost.gate_delta:+d} gates, "
             f"{rec.cost.flop_delta:+d} flops "
             f"(scalar {rec.cost.scalar})"),
            ("measured DC", pct(rec.measured_dc)
             if rec.measured_dc is not None else "n/a"),
            ("campaign run", f"run {rec.run_id}"),
        ]))
        parts.append("   mechanisms:")
        parts.extend(f"     - {line}" for line in applied)

        if rec.point.applied:
            deltas = zone_sff_deltas(
                result.records[()].lambda_du,
                result.records[rec.point.applied].lambda_du)
            rows = [[zone, f"{du_b:.4f}", f"{du_a:.4f}",
                     f"{du_b - du_a:+.4f}"]
                    for zone, du_b, du_a in deltas]
            if rows:
                parts.append(render_table(
                    ["zone", "λDU before", "λDU after", "delta"],
                    rows,
                    title="\n   per-zone evidence (FIT, top movers)"))

    # 5. incremental-store economics
    pairs = [
        ("faults simulated", result.total_simulated),
        ("cold equivalent",
         f"{result.cold_faults} (every variant from scratch)"),
        ("warm hits / lookups",
         f"{result.total_hits}/"
         f"{result.total_hits + result.total_misses}"),
        ("hit rate", pct(result.hit_rate)),
        ("hit rate (incremental phase)",
         f"{pct(result.incremental_hit_rate)} "
         "(excluding the cold base seed)"),
    ]
    if result.verification is not None:
        ver = result.verification
        ident = (result.recommended is not None
                 and ver.measured_dc == result.recommended.measured_dc
                 and ver.safe_fraction ==
                 result.recommended.safe_fraction)
        pairs.append(("verification re-run",
                      f"warm {ver.hits}/{ver.hits + ver.misses}, "
                      f"metrics {'bit-identical' if ident else 'DIFFER'}"))
    parts.append(render_kv(
        pairs, title="\n5. incremental-campaign economics"))

    parts.append("\n6. search log")
    parts.extend(f"   {line}" for line in result.log)
    parts.append(RULE)
    return "\n".join(parts)


def required_sff_safe(config) -> float:
    """SIL3's SFF floor at the configured HFT (for the header line)."""
    from ..iec61508.sil import SIL
    try:
        return required_sff(SIL.SIL3, config.hft)
    except Exception:
        return 0.99
