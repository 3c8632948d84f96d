"""The reusable campaign core behind the CLI and the serve daemon.

:class:`CampaignService` owns the plumbing that used to be inlined in
``cli.py``'s ``campaign`` verb: subsystem/environment assembly,
stimuli and zone-config validation, store wiring, supervisor
invocation and report rendering.  Every consumer — the ``campaign``
CLI verb, a queue worker inside ``soc-fmea serve``, a future HTTP
API — goes through :meth:`CampaignService.run_campaign`, so they
cannot drift apart: the CLI's byte-for-byte output and exit codes
*are* the service's output and exit codes.

A :class:`CampaignRequest` is a plain, JSON-round-trippable record of
one campaign's parameters — exactly what a queued job stores in its
``spec`` column.  :class:`CampaignOutcome` carries the rendered
stdout/stderr, the exit code, and the headline metrics a job records
as its result.

Multi-tenancy: a service is rooted at one store directory; the
``default`` project writes evidence directly into it, while any other
project name is namespaced under ``<root>/projects/<name>`` — its own
content-addressed store, sharing nothing but the job queue (which
always lives in the root index).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

#: default campaign-store directory; overridable per invocation with
#: ``--store`` or globally with the ``SOCFMEA_STORE`` environment
#: variable
DEFAULT_STORE = ".socfmea_store"

#: consolidated exit-code taxonomy (see docs/methodology.md §4e):
#: 0 — success; 1 — operational failure (aborted campaign, internal
#: error); 2 — coded diagnostics were reported (bad input, usage);
#: 3 — completed, but the evidence is bounded (quarantined faults or
#: degraded-mode skipped zones)
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DIAGNOSTIC = 2
EXIT_QUARANTINE = 3


def resolve_store_root(path: str | None = None) -> str:
    """Explicit path beats ``$SOCFMEA_STORE`` beats the default."""
    if path:
        return path
    return os.environ.get("SOCFMEA_STORE") or DEFAULT_STORE


#: registered design variants (``make_subsystem``'s factory table);
#: ``CampaignRequest.validate`` checks against this so the CLI and the
#: HTTP API reject an unknown variant with the same E431 diagnostic
VARIANTS = ("baseline", "improved", "small-baseline",
            "small-improved")

def make_subsystem(variant: str, banks: int = 1,
                   flags: dict | None = None,
                   bank_flags: list | None = None):
    """The built-in design variants, by CLI name.

    ``banks`` > 1 elaborates the scaled multi-bank design
    (:class:`~repro.soc.banked.BankedMemorySubsystem`) with ``banks``
    channels of the named variant behind one bus.  ``flags`` overrides
    protection flags on every channel; ``bank_flags`` is a per-bank
    list of flag-override dicts (design-space exploration uses it to
    apply a mitigation to one bank only).
    """
    from ..soc.config import BankedConfig, SubsystemConfig
    from ..soc.subsystem import MemorySubsystem
    factory = {
        "baseline": SubsystemConfig.baseline,
        "improved": SubsystemConfig.improved,
        "small-baseline": SubsystemConfig.small_baseline,
        "small-improved": SubsystemConfig.small_improved,
    }[variant]
    cfg = factory()
    if flags:
        cfg = cfg.with_flags(**flags)
    if banks <= 1 and not bank_flags:
        return MemorySubsystem(cfg)
    from ..soc.banked import BankedMemorySubsystem
    n = max(banks, len(bank_flags or ()))
    bcfg = BankedConfig.uniform(cfg, n)
    for i, overrides in enumerate(bank_flags or ()):
        if overrides:
            bcfg = bcfg.with_bank_flags(i, **overrides)
    return BankedMemorySubsystem(bcfg)


@dataclass
class CampaignRequest:
    """One campaign's parameters, as a JSON-serializable record."""

    variant: str = "improved"
    banks: int = 1
    flags: dict | None = None
    bank_flags: list | None = None
    full: bool = False
    workers: int = 1
    shards: int | None = None
    sample: int | None = None
    machines_per_pass: int | None = None
    use_cache: bool = True
    shard_timeout: float | None = None
    cycle_budget: int | None = None
    max_retries: int = 2
    quarantine: bool = True
    zones: str | None = None
    stimuli: str | None = None
    degraded: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignRequest":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def validate(self):
        """Check every parameter, returning a
        :class:`~repro.diagnostics.DiagnosticReport`.

        Shared by :meth:`CampaignService.run_campaign` (rendered to
        stderr, exit 2) and the HTTP API (rendered as a 400 response
        body), so a bad request reports the same coded diagnostics on
        both surfaces — E430 for an ill-typed or out-of-range value,
        E431 for an unknown variant — and never a traceback.
        """
        from ..diagnostics import DiagnosticReport
        from ..soc.config import PROTECTION_FLAGS
        report = DiagnosticReport()
        if self.variant not in VARIANTS:
            report.error(
                "E431",
                f"unknown design variant {self.variant!r} (known: "
                f"{', '.join(VARIANTS)})")

        def bad(message):
            report.error("E430", message)

        def is_int(value):
            return isinstance(value, int) and not isinstance(value, bool)
        for name, floor, required in (
                ("workers", 1, True), ("banks", 1, True),
                ("shards", 1, False), ("sample", 1, False),
                ("machines_per_pass", 1, False),
                ("max_retries", 0, True), ("cycle_budget", 1, False)):
            value, label = getattr(self, name), name.replace("_", "-")
            if value is None and not required:
                continue
            if not is_int(value):
                bad(f"{label} must be an integer, got {value!r}")
            elif value < floor:
                bad(f"{label} must be at least {floor}, got {value}")
        timeout = self.shard_timeout
        if timeout is not None and not (
                (is_int(timeout) or isinstance(timeout, float))
                and timeout > 0):
            bad(f"shard-timeout must be a positive number, got "
                f"{timeout!r}")
        for name in ("full", "use_cache", "quarantine", "degraded"):
            if not isinstance(getattr(self, name), bool):
                bad(f"{name} must be true or false, got "
                    f"{getattr(self, name)!r}")
        for name in ("zones", "stimuli"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                bad(f"{name} must be a path string, got {value!r}")

        def check_flags(label, overrides):
            if not isinstance(overrides, dict):
                bad(f"{label} must be a JSON object of protection-flag "
                    f"overrides, got {overrides!r}")
                return
            for key, value in overrides.items():
                if key not in PROTECTION_FLAGS:
                    bad(f"{label}: {key!r} is not a protection flag "
                        f"(known: {', '.join(PROTECTION_FLAGS)})")
                elif not isinstance(value, bool):
                    bad(f"{label}: {key} must be true or false, got "
                        f"{value!r}")
        if self.flags is not None:
            check_flags("flags", self.flags)
        if self.bank_flags is not None:
            if not isinstance(self.bank_flags, list):
                bad("bank-flags must be a JSON list of per-bank "
                    "override objects")
            else:
                for i, overrides in enumerate(self.bank_flags):
                    check_flags(f"bank-flags[{i}]", overrides)
                if is_int(self.banks) and \
                        len(self.bank_flags) > self.banks:
                    bad(f"bank-flags lists {len(self.bank_flags)} "
                        f"banks, more than banks = {self.banks}")
        return report

    @classmethod
    def from_args(cls, args) -> "CampaignRequest":
        """Build from the ``campaign`` / ``jobs submit`` CLI args."""
        return cls(
            variant=args.variant,
            banks=getattr(args, "banks", 1) or 1,
            full=args.full,
            workers=args.workers, shards=args.shards,
            sample=args.sample,
            machines_per_pass=args.machines_per_pass,
            use_cache=not getattr(args, "no_cache", False),
            shard_timeout=args.shard_timeout,
            cycle_budget=args.cycle_budget,
            max_retries=args.max_retries,
            quarantine=not args.no_quarantine,
            zones=args.zones, stimuli=args.stimuli,
            degraded=args.degraded)


@dataclass
class CampaignOutcome:
    """What one campaign produced: text, exit code and metrics."""

    exit_code: int
    out: str = ""
    err: str = ""
    design: str | None = None
    faults: int = 0
    measured_dc: float | None = None
    safe_fraction: float | None = None
    quarantined: int = 0
    skipped_zones: list[str] = field(default_factory=list)
    run_id: int | None = None
    hits: int = 0
    misses: int = 0
    simulated: int = 0
    claimed_sff: float | None = None
    claimed_dc: float | None = None

    def summary_dict(self) -> dict:
        """The compact record a finished job stores as its result."""
        return {
            "exit_code": self.exit_code,
            "design": self.design,
            "faults": self.faults,
            "measured_dc": self.measured_dc,
            "safe_fraction": self.safe_fraction,
            "quarantined": self.quarantined,
            "skipped_zones": list(self.skipped_zones),
            "run_id": self.run_id,
            "hits": self.hits,
            "misses": self.misses,
            "simulated": self.simulated,
            "claimed_sff": self.claimed_sff,
            "claimed_dc": self.claimed_dc,
        }


class CampaignService:
    """Campaign execution rooted at one store directory."""

    def __init__(self, store_root: str | Path | None = None,
                 project: str = "default"):
        self.root = Path(resolve_store_root(
            str(store_root) if store_root is not None else None))
        self.project = project

    # ------------------------------------------------------------------
    # store namespaces and queue access
    # ------------------------------------------------------------------
    def store_path(self, project: str | None = None) -> Path:
        name = project if project is not None else self.project
        if name == "default":
            return self.root
        return self.root / "projects" / name

    def open_cache(self, project: str | None = None):
        from ..store import CampaignCache
        return CampaignCache(self.store_path(project))

    def open_queue(self, policy=None):
        """The job queue always lives in the root store index, so one
        daemon serves every project namespace under this root."""
        from .queue import JobQueue
        return JobQueue(self.root, policy=policy)

    # ------------------------------------------------------------------
    # job lifecycle façade (CLI ``jobs`` verbs and future APIs)
    # ------------------------------------------------------------------
    def submit(self, request: CampaignRequest,
               max_attempts: int | None = None,
               idempotency_key: str | None = None) -> int:
        job_id, _ = self.submit_dedup(
            request, max_attempts=max_attempts,
            idempotency_key=idempotency_key)
        return job_id

    def submit_dedup(self, request: CampaignRequest,
                     max_attempts: int | None = None,
                     idempotency_key: str | None = None
                     ) -> tuple[int, bool]:
        """Submit with idempotency-key dedupe; ``(job_id,
        deduped)``."""
        with self.open_queue() as queue:
            return queue.submit_idempotent(
                request.to_dict(), project=self.project,
                max_attempts=max_attempts,
                idempotency_key=idempotency_key)

    def status(self, job_id: int):
        with self.open_queue() as queue:
            return queue.job(job_id)

    def cancel(self, job_id: int) -> bool:
        with self.open_queue() as queue:
            return queue.cancel(job_id)

    def retry(self, job_id: int) -> bool:
        with self.open_queue() as queue:
            return queue.retry(job_id)

    def list_jobs(self, status: str | None = None,
                  project: str | None = None):
        with self.open_queue() as queue:
            return queue.jobs(status=status, project=project)

    # ------------------------------------------------------------------
    # the campaign itself (extracted from cli.cmd_campaign)
    # ------------------------------------------------------------------
    def run_campaign(self, request: CampaignRequest, progress=None,
                     cache=None, heartbeat=None,
                     heartbeat_interval: float = 1.0, env=None
                     ) -> CampaignOutcome:
        """Run one campaign; never prints — output is returned.

        ``out``/``err`` in the returned :class:`CampaignOutcome` are
        byte-identical to what the pre-service CLI printed, and the
        exit code follows the same taxonomy.  ``progress`` is invoked
        live (the CLI prints its lines immediately).  ``cache``
        overrides the store the request would open (the daemon passes
        a per-job cache it also watches for the run id); ``heartbeat``
        is threaded into the supervisor's event loop.  ``env`` is an
        :class:`~repro.faultinjection.environment.InjectionEnvironment`
        the caller already elaborated for this request's design (the
        explore walk passes the point it built); without it the
        request's design is elaborated here.
        """
        from ..faultinjection import build_environment, randomize
        from ..faultinjection.environment import (
            StimuliValidationError,
            validate_stimuli,
        )
        from ..faultinjection.manager import CampaignConfig
        from ..faultinjection.supervisor import (
            CampaignAborted,
            CampaignSupervisor,
            SupervisorConfig,
        )
        from ..reporting.tables import pct, render_table

        out: list[str] = []
        err: list[str] = []

        def outcome(code: int, **kw) -> CampaignOutcome:
            return CampaignOutcome(exit_code=code,
                                   out="\n".join(out),
                                   err="\n".join(err), **kw)

        vreport = request.validate()
        if not vreport.ok:
            err.append(vreport.render(title="campaign request"))
            return outcome(EXIT_DIAGNOSTIC)
        if env is None:
            env = build_environment(
                make_subsystem(request.variant, banks=request.banks,
                               flags=request.flags,
                               bank_flags=request.bank_flags),
                quick=not request.full)
        design = env.worksheet.name

        if request.stimuli:
            from ..diagnostics import DiagnosticReport
            from ..faultinjection.environment import (
                load_stimuli,
                validate_stimuli_report,
            )
            sreport = DiagnosticReport()
            cycles = load_stimuli(request.stimuli, report=sreport)
            if cycles is not None:
                validate_stimuli_report(env.circuit, cycles, sreport,
                                        source=request.stimuli)
            if not sreport.ok:
                err.append(sreport.render(title="stimuli"))
                return outcome(EXIT_DIAGNOSTIC)
            env.stimuli = cycles
        else:
            try:
                validate_stimuli(env.circuit, env.stimuli)
            except StimuliValidationError as exc:
                err.append(f"error: invalid stimuli for "
                           f"{design}:\n{exc}")
                return outcome(EXIT_DIAGNOSTIC)

        skipped_zones: list[str] = []
        if request.zones:
            from ..diagnostics import DiagnosticReport
            from ..zones.io import load_zone_config, \
                resolve_zone_config
            zreport = DiagnosticReport()
            data = load_zone_config(request.zones, report=zreport)
            if data is None:
                err.append(zreport.render(title="zone config"))
                return outcome(EXIT_DIAGNOSTIC)
            resolution = resolve_zone_config(
                data, env.zone_set, env.circuit, zreport,
                source=request.zones)
            if not zreport.ok and not request.degraded:
                err.append(zreport.render(title="zone config"))
                err.append("(strict mode: pass --degraded to run the "
                           "resolvable zones and bound the metrics)")
                return outcome(EXIT_DIAGNOSTIC)
            if zreport.diagnostics:
                err.append(zreport.render(title="zone config"))
            selected = set(resolution.selected)
            skipped_zones = list(resolution.skipped)
            env.zone_set.zones = [z for z in env.zone_set.zones
                                  if z.name in selected]
            if not env.zone_set.zones:
                err.append("error: no configured zone resolved "
                           "against the netlist — nothing to inject")
                return outcome(EXIT_DIAGNOSTIC)

        if cache is None and request.use_cache:
            cache = self.open_cache()
        if cache is not None:
            env.profile(cache)          # served from the store
        candidates = env.candidates()
        if request.sample:
            candidates = randomize(candidates, request.sample)

        config = CampaignConfig(
            machines_per_pass=request.machines_per_pass,
            cycle_budget=request.cycle_budget)
        runner = CampaignSupervisor(
            env.spec(config), workers=request.workers, shards=request.shards,
            progress=progress, cache=cache,
            config=SupervisorConfig(
                shard_timeout=request.shard_timeout,
                max_retries=request.max_retries,
                quarantine=request.quarantine,
                heartbeat=heartbeat,
                heartbeat_interval=heartbeat_interval))
        try:
            campaign = runner.run(candidates)
        except CampaignAborted as exc:
            err.append(f"error: campaign aborted: {exc}")
            if cache is not None:
                cache.close()
            return outcome(EXIT_FAILURE, design=design)
        anomalies = runner.anomalies

        counts = campaign.outcomes()
        rows = [[name, count, pct(count / len(campaign.results))
                 if campaign.results else pct(0.0)]
                for name, count in counts.items()]
        out.append(render_table(
            ["outcome", "faults", "fraction"], rows,
            title=f"=== campaign: {design}, "
                  f"{len(campaign.results)} faults ==="))
        out.append(f"measured DC:            "
                   f"{pct(campaign.measured_dc())}")
        out.append(f"measured safe fraction: "
                   f"{pct(campaign.measured_safe_fraction())}")
        out.append(runner.last_stats.summary())
        if anomalies:
            from ..reporting.health import render_campaign_health
            out.append(render_campaign_health(
                campaign, anomalies, health=runner.last_stats.health))
        if skipped_zones:
            from ..reporting.health import (
                degraded_bounds,
                render_degraded_health,
            )
            out.append(render_degraded_health(
                degraded_bounds(campaign, skipped_zones)))
        run_id = None
        hits = misses = simulated = 0
        if cache is not None:
            out.append(cache.stats.summary())
            out.append(cache.stats.planning())
            run_id = cache.last_run_id
            hits, misses = cache.stats.hits, cache.stats.misses
            simulated = cache.stats.simulated
            cache.close()
        claimed = env.worksheet.totals()
        return outcome(
            EXIT_QUARANTINE if anomalies or skipped_zones
            else EXIT_OK,
            design=design, faults=len(campaign.results),
            measured_dc=campaign.measured_dc(),
            safe_fraction=campaign.measured_safe_fraction(),
            quarantined=len(anomalies),
            skipped_zones=skipped_zones, run_id=run_id, hits=hits,
            misses=misses, simulated=simulated,
            claimed_sff=claimed.sff, claimed_dc=claimed.dc)
