"""Rendering for the campaign job queue (``soc-fmea jobs``)."""

from __future__ import annotations

import time

from .tables import pct, render_kv, render_table


def _age(now: float, then: float | None) -> str:
    if then is None:
        return "-"
    seconds = max(0.0, now - then)
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def render_job_table(jobs, now: float | None = None) -> str:
    """One row per job, newest last (submission order)."""
    now = now if now is not None else time.time()
    rows = []
    for job in jobs:
        variant = job.spec.get("variant", "?")
        lease = "-"
        if job.lease_deadline is not None:
            remain = job.lease_deadline - now
            lease = f"{remain:.0f}s" if remain >= 0 \
                else f"stale {-remain:.0f}s"
        note = "-"
        if job.error:
            note = job.error.get("message", "?")
        elif job.result and job.result.get("measured_dc") is not None:
            note = f"DC {pct(job.result['measured_dc'])}"
        rows.append([
            job.job_id, job.project, job.status, variant,
            f"{job.attempts}/{job.max_attempts}", lease,
            _age(now, job.created_at),
            note if len(note) <= 48 else note[:45] + "...",
        ])
    return render_table(
        ["job", "project", "status", "variant", "att", "lease",
         "age", "note"],
        rows, title="=== campaign jobs ===")


def job_detail_pairs(job, now: float | None = None
                     ) -> list[tuple[str, object]]:
    """Key/value lines for ``jobs status`` (render with render_kv)."""
    now = now if now is not None else time.time()
    pairs: list[tuple[str, object]] = [
        ("job", job.job_id),
        ("project", job.project),
        ("status", job.status),
        ("attempts", f"{job.attempts}/{job.max_attempts}"),
        ("submitted", f"{_age(now, job.created_at)} ago"),
    ]
    for key in ("variant", "workers", "sample"):
        if job.spec.get(key) is not None:
            pairs.append((key, job.spec[key]))
    if job.idempotency_key:
        pairs.append(("idempotency key", job.idempotency_key))
    if job.progress and job.progress.get("done") is not None:
        done = job.progress["done"]
        total = job.progress.get("total")
        pairs.append(("progress",
                      f"{done}/{total} ({pct(done / total)})"
                      if total else str(done)))
    if job.lease_owner:
        pairs.append(("lease owner", job.lease_owner))
    if job.lease_deadline is not None:
        remain = job.lease_deadline - now
        pairs.append(("lease", f"{remain:.0f}s remaining" if remain >= 0
                      else f"expired {-remain:.0f}s ago"))
    if job.run_id is not None:
        pairs.append(("store run", f"#{job.run_id}"))
    if job.result:
        for key in ("exit_code", "faults", "hits", "misses",
                    "simulated", "quarantined"):
            if job.result.get(key) is not None:
                pairs.append((f"result {key}", job.result[key]))
        if job.result.get("measured_dc") is not None:
            pairs.append(("result measured DC",
                          pct(job.result["measured_dc"])))
        if job.result.get("safe_fraction") is not None:
            pairs.append(("result safe fraction",
                          pct(job.result["safe_fraction"])))
    if job.error:
        pairs.append(("error kind", job.error.get("kind", "?")))
        pairs.append(("error", job.error.get("message", "?")))
    return pairs


def render_job_detail(job, now: float | None = None) -> str:
    text = render_kv(job_detail_pairs(job, now=now),
                     title=f"=== job #{job.job_id} ===")
    if job.error and job.error.get("detail"):
        text += "\n--- recorded cause ---\n" \
            + str(job.error["detail"])
    return text
