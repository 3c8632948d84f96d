"""Report rendering helpers."""

from .tables import pct, render_kv, render_table
from .dossier import build_dossier
from .health import (
    DegradedBounds,
    QuarantineBounds,
    degraded_bounds,
    quarantine_bounds,
    render_campaign_health,
    render_degraded_health,
)
from .rundiff import render_run_diff
from .jobs import job_detail_pairs, render_job_detail, \
    render_job_table

__all__ = ["pct", "render_kv", "render_table", "build_dossier",
           "DegradedBounds", "QuarantineBounds", "degraded_bounds",
           "quarantine_bounds", "render_campaign_health",
           "render_degraded_health",
           "render_run_diff", "render_explore_dossier",
           "job_detail_pairs", "render_job_detail",
           "render_job_table"]


def render_explore_dossier(result) -> str:
    """The exploration dossier (lazy import: reporting must not pull
    the whole explore/service stack in at import time)."""
    from ..explore.dossier import render_explore_dossier as render
    return render(result)
