"""``soc-fmea`` command-line interface.

Exposes the methodology end to end from a shell::

    soc-fmea zones --variant improved
    soc-fmea fmea --variant baseline --csv baseline.csv
    soc-fmea validate --variant improved --quick
    soc-fmea sensitivity --variant improved
    soc-fmea verilog --variant baseline -o memss.v
    soc-fmea compare
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .fmea.report import full_report
from .fmea.sensitivity import stability_report
from .hdl.verilog import write_verilog
from .iec61508.sil import SIL, max_sil
from .reporting.tables import pct, render_kv, render_table
from .soc.config import SubsystemConfig
from .soc.subsystem import MemorySubsystem


#: exit-code taxonomy and store-path resolution live with the
#: service core (docs/methodology.md §4e/§4g); re-exported here for
#: backward compatibility
from .service.core import (  # noqa: E402 — after the header imports
    DEFAULT_STORE,
    EXIT_DIAGNOSTIC,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_QUARANTINE,
    make_subsystem,
    resolve_store_root,
)


def resolve_store_path(args) -> str:
    """``--store`` beats ``$SOCFMEA_STORE`` beats the default."""
    return resolve_store_root(getattr(args, "store", None))


def _open_store(args):
    from .store import CampaignCache
    return CampaignCache(resolve_store_path(args))


def _make_subsystem(args) -> MemorySubsystem:
    return make_subsystem(args.variant)


def cmd_zones(args) -> int:
    if args.netlist:
        from .hdl.verilog import parse_verilog_file
        from .zones.extractor import extract_zones
        circuit = parse_verilog_file(args.netlist)
        zone_set = extract_zones(circuit)
        title = f"sensible zones of {circuit.name}"
    else:
        sub = _make_subsystem(args)
        zone_set = sub.extract_zones()
        title = f"sensible zones of {sub.cfg.name}"
    print(render_kv(sorted(zone_set.summary().items()), title=title))
    if args.list:
        rows = [[z.name, z.kind.value, z.size_bits, z.cone_gates]
                for z in zone_set.zones]
        print(render_table(["zone", "kind", "bits", "cone gates"], rows))
    if args.save:
        from .zones.io import save_zones
        save_zones(zone_set, args.save)
        print(f"zone config written to {args.save}")
    return EXIT_OK


def cmd_fmea(args) -> int:
    if args.load:
        from .fmea.io import load_worksheet
        sheet = load_worksheet(args.load)
    else:
        sub = _make_subsystem(args)
        sheet = sub.worksheet()
    print(full_report(sheet, hft=args.hft, top=args.top))
    if args.csv:
        sheet.save_csv(args.csv)
        print(f"\nworksheet written to {args.csv}")
    if args.save:
        from .fmea.io import save_worksheet
        save_worksheet(sheet, args.save)
        print(f"worksheet written to {args.save}")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .faultinjection.validation import run_validation
    sub = _make_subsystem(args)
    report = run_validation(sub, quick=not args.full)
    print(report.summary())
    if report.coverage is not None:
        print(report.coverage.report())
    return 0 if report.passed else 1


def cmd_sensitivity(args) -> int:
    sub = _make_subsystem(args)
    report = stability_report(sub.worksheet())
    print(report.summary())
    stable = report.stable(args.tolerance)
    print(f"stable at ±{args.tolerance * 100:.1f} pt: "
          f"{'yes' if stable else 'no'}")
    return 0


def cmd_verilog(args) -> int:
    sub = _make_subsystem(args)
    text = write_verilog(sub.circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"netlist written to {args.output} "
              f"({len(text.splitlines())} lines)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_xcheck(args) -> int:
    """Reset-coverage / X-propagation sign-off check."""
    from .hdl.xprop import reset_coverage
    sub = _make_subsystem(args)
    reset = [sub.reset_op() for _ in range(args.reset_cycles)]
    check = [sub.write(2, 0x11), sub.idle(), sub.idle(),
             sub.read(2), sub.idle(), sub.idle(), sub.idle()]
    report = reset_coverage(sub.circuit, reset, check)
    print(report.summary())
    if args.list and report.unknown_after_reset:
        for name in report.unknown_after_reset:
            print(f"  X: {name}")
    print("sign-off:", "CLEAN (no X observable at outputs)"
          if report.clean else "FAIL — X reaches outputs")
    return 0 if report.clean else 1


def cmd_derating(args) -> int:
    """Measure the SET latch-window derating on the design."""
    from .analysis.derating import measure_set_derating
    from .soc.workloads import validation_workload
    sub = _make_subsystem(args)
    workload = validation_workload(sub, quick=True)
    result = measure_set_derating(
        sub.circuit, list(workload), samples=args.samples,
        seed=args.seed, setup=sub.preload_image())
    print(result.summary())
    print(f"apply to FitModel.gate_transient_fit: multiply the raw "
          f"SET rate by {result.latch_fraction:.3f}")
    return 0


def cmd_dossier(args) -> int:
    """Full certification dossier: FMEA + validation + sensitivity."""
    from .faultinjection import build_environment
    from .faultinjection.validation import run_validation
    from .reporting.dossier import build_dossier
    sub = _make_subsystem(args)
    zone_set = sub.extract_zones()
    sheet = sub.worksheet(zone_set)
    validation = None
    if not args.no_validation:
        # the environment builds its own worksheet: step a writes the
        # measured factors into it, and ``sheet`` stays as claimed
        validation = run_validation(
            sub, env=build_environment(sub, zone_set=zone_set))
    text = build_dossier(sub.cfg.name, sub, zone_set, sheet,
                         validation=validation,
                         target_sil=SIL(args.target_sil),
                         hft=args.hft)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"dossier written to {args.output}")
    else:
        print(text)
    return 0


def cmd_campaign(args) -> int:
    """Run the zone fault-injection campaign, optionally sharded.

    Thin shell over :class:`~repro.service.core.CampaignService` —
    the same core the ``serve`` daemon executes queued jobs through —
    printing its buffered output and propagating its exit code.
    """
    from .service.core import CampaignRequest, CampaignService

    progress = None
    if args.progress:
        def progress(done, total):
            print(f"  {done}/{total} faults simulated", flush=True)

    service = CampaignService(resolve_store_path(args))
    outcome = service.run_campaign(CampaignRequest.from_args(args),
                                   progress=progress)
    if outcome.out:
        print(outcome.out)
    if outcome.err:
        print(outcome.err, file=sys.stderr)
    return outcome.exit_code


def cmd_explore(args) -> int:
    """Design-space exploration: walk the cost-vs-SFF Pareto front.

    Exit 0 when the recommended configuration meets the SFF target,
    3 when the search ended (budget or frontier exhausted) below it.
    """
    from .explore import ExploreConfig, explore, render_explore_dossier
    from .service.core import CampaignService

    if args.banks < 1:
        print("error: --banks must be at least 1", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return EXIT_DIAGNOSTIC

    service = CampaignService(resolve_store_path(args),
                              project=args.project)
    config = ExploreConfig(
        variant=args.variant, banks=args.banks,
        target_sff=args.target_sff, hft=args.hft,
        budget=args.budget, probe_width=args.probe_width,
        full=args.full, workers=args.workers,
        verify=not args.no_verify)
    progress = None
    if not args.quiet:
        def progress(line):
            print(f"  {line}", flush=True)
    result = explore(service, config, progress=progress)
    text = render_explore_dossier(result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"exploration dossier written to {args.output}")
    else:
        print(text)
    return EXIT_OK if result.target_met else EXIT_QUARANTINE


def cmd_serve(args) -> int:
    """Run the campaign job-queue daemon (claim, execute, recover).

    With ``--http HOST:PORT`` the process additionally fronts the
    queue with the campaign API (``repro.api``): the asyncio server
    owns the sockets while the daemon's claim loops run as embedded
    worker threads, so one SIGTERM drains both — in-flight responses
    finish, worker leases release.
    """
    from .service.daemon import DaemonConfig, ServiceDaemon

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.lease <= 0 or args.heartbeat_interval <= 0:
        print("error: --lease and --heartbeat-interval must be "
              "positive", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.heartbeat_interval >= args.lease:
        print("error: --heartbeat-interval must be shorter than "
              "--lease, or the lease expires between renewals",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    store_root = resolve_store_path(args)
    config = DaemonConfig(
        workers=args.workers, lease_seconds=args.lease,
        heartbeat_interval=args.heartbeat_interval,
        poll_interval=args.poll_interval, drain=args.drain,
        verbose=not args.quiet)
    if not args.http:
        daemon = ServiceDaemon(store_root, config)
        return daemon.serve()

    from .api.server import ApiConfig, ApiServer
    host, _, port_text = args.http.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --http wants HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.max_queue_depth < 1:
        print("error: --max-queue-depth must be at least 1",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    daemon = None
    if not args.no_workers:
        daemon = ServiceDaemon(store_root, config)
    server = ApiServer(store_root, ApiConfig(
        host=host or "127.0.0.1", port=port,
        auth_path=args.auth,
        max_queue_depth=args.max_queue_depth,
        verbose=not args.quiet), daemon=daemon)
    return server.run()


def cmd_chaos(args) -> int:
    """Self-FMEA: inject infrastructure failpoints, verify recovery.

    Sweeps the enumerated failure modes of the store/queue/daemon
    stack (or a ``--failpoint`` / ``--quick`` subset), running each
    as a real campaign in a subprocess with the failpoint armed, and
    renders the worksheet: failure mode → detection → recovery →
    harness-verified verdict.  Exit 0 only when every executed mode
    verified.
    """
    import json
    import tempfile

    from .chaos import build_worksheet, registry, scenarios
    from .chaos.harness import ChaosHarness
    from .reporting.chaos import render_failpoint_list, \
        render_self_fmea

    if args.list:
        print(render_failpoint_list(registry()))
        return EXIT_OK

    selected = scenarios()
    if args.failpoint:
        known = {s.name for s in registry()}
        missing = [name for name in args.failpoint
                   if name not in known]
        if missing:
            print(f"error: unknown failpoint(s): "
                  f"{', '.join(missing)} (see soc-fmea chaos "
                  f"--list)", file=sys.stderr)
            return EXIT_DIAGNOSTIC
        selected = [s for s in selected
                    if s.failpoint in set(args.failpoint)]
    if args.kind:
        selected = [s for s in selected if s.kind == args.kind]
    if args.quick:
        selected = [s for s in selected if s.smoke]
    if not selected:
        print("error: the filters match no chaos scenario",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC

    progress = None
    if not args.quiet:
        def progress(line):
            print(f"  chaos: {line}", flush=True)

    def run(workdir) -> int:
        harness = ChaosHarness(workdir, variant=args.variant,
                               progress=progress,
                               timeout=args.timeout)
        results = harness.sweep(selected)
        worksheet = build_worksheet(results)
        if args.json:
            text = json.dumps(worksheet.as_dict(), indent=1,
                              sort_keys=True)
        else:
            text = render_self_fmea(worksheet)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"self-FMEA report written to {args.output}")
            if args.json:
                # the file holds the machine copy; keep the log human
                print(render_self_fmea(worksheet))
            else:
                print(f"{worksheet.verified} verified, "
                      f"{worksheet.failed} failed, "
                      f"{worksheet.not_run} not run")
        else:
            print(text)
        return EXIT_OK if worksheet.ok else EXIT_FAILURE

    if args.workdir:
        return run(args.workdir)
    with tempfile.TemporaryDirectory(prefix="soc-fmea-chaos-") \
            as workdir:
        return run(workdir)


def cmd_jobs(args) -> int:
    """Submit and manage queued campaign jobs (executed by serve)."""
    from .reporting.jobs import render_job_detail, render_job_table
    from .service.core import CampaignRequest, CampaignService
    from .service.queue import JOB_DEAD

    service = CampaignService(
        resolve_store_path(args),
        project=getattr(args, "project", None) or "default")
    cmd = args.jobs_command

    if cmd == "submit":
        if args.max_attempts is not None and args.max_attempts < 1:
            print("error: --max-attempts must be at least 1",
                  file=sys.stderr)
            return EXIT_DIAGNOSTIC
        job_id, deduped = service.submit_dedup(
            CampaignRequest.from_args(args),
            max_attempts=args.max_attempts,
            idempotency_key=args.idempotency_key)
        if deduped:
            print(f"job #{job_id} already queued under idempotency "
                  f"key {args.idempotency_key!r} (project "
                  f"{service.project}) — not re-enqueued")
        else:
            print(f"queued job #{job_id} (project {service.project})"
                  f" — execute with 'soc-fmea serve'")
        return EXIT_OK

    if cmd == "list":
        jobs = service.list_jobs(status=args.status,
                                 project=args.project)
        if not jobs:
            print("no jobs recorded")
        else:
            print(render_job_table(jobs))
        with service.open_queue() as queue:
            dead = queue.counts().get(JOB_DEAD, 0)
        if dead:
            print(f"{dead} dead-letter job(s) — inspect with "
                  f"'soc-fmea jobs status <id>', fix the cause, then "
                  f"'soc-fmea jobs retry <id>'", file=sys.stderr)
            return EXIT_QUARANTINE
        return EXIT_OK

    job = service.status(args.job_id)
    if job is None:
        print(f"error: no job #{args.job_id}", file=sys.stderr)
        return EXIT_FAILURE
    if cmd == "status":
        if getattr(args, "follow", False):
            job = _follow_job(service, job, args.interval)
        print(render_job_detail(job))
        return EXIT_QUARANTINE if job.status == JOB_DEAD else EXIT_OK
    if cmd == "cancel":
        if not service.cancel(args.job_id):
            print(f"error: job #{args.job_id} is {job.status} — only "
                  f"queued, leased or running jobs can be cancelled",
                  file=sys.stderr)
            return EXIT_FAILURE
        print(f"job #{args.job_id} cancelled")
        return EXIT_OK
    if cmd == "retry":
        if not service.retry(args.job_id):
            print(f"error: job #{args.job_id} is {job.status} — only "
                  f"dead-letter or cancelled jobs can be retried",
                  file=sys.stderr)
            return EXIT_FAILURE
        print(f"job #{args.job_id} re-queued with a fresh attempt "
              f"budget")
        return EXIT_OK
    raise AssertionError(cmd)


def _follow_job(service, job, interval: float):
    """Poll one job until terminal, printing the API stream's
    state-snapshot events (same formatting, no server needed)."""
    import time as _time

    from .api.events import (
        TERMINAL_STATES,
        event_key,
        format_event,
        job_event,
    )

    last = None
    while True:
        event = job_event(job)
        key = event_key(event)
        if key != last:
            print(format_event(event), flush=True)
            last = key
        if job.status in TERMINAL_STATES:
            return job
        _time.sleep(interval)
        refreshed = service.status(job.job_id)
        if refreshed is None:
            return job                 # deleted under us: last word
        job = refreshed


def cmd_doctor(args) -> int:
    """Audit project artifacts; report every problem, change nothing."""
    from .diagnostics import audit_project, discover_project

    found = discover_project(args.project)
    paths = {kind: getattr(args, kind, None) or found.get(kind)
             for kind in ("netlist", "zones", "worksheet", "stimuli")}
    store = None
    if not args.no_store:
        store = (getattr(args, "store", None)
                 or os.environ.get("SOCFMEA_STORE")
                 or found.get("store"))
    audit = audit_project(store=store, **paths)
    if args.json:
        print(audit.report.to_json(indent=1))
    else:
        print(audit.report.render(title="soc-fmea doctor"))
        print(audit.summary())
    return EXIT_OK if audit.ok else EXIT_DIAGNOSTIC


def cmd_export(args) -> int:
    """Write a self-consistent project directory for one variant.

    The exported ``netlist.v`` / ``zones.json`` / ``worksheet.json``
    / ``stimuli.json`` form a project that ``soc-fmea doctor`` audits
    cleanly — and the natural starting point for editing any one
    artifact and letting ``doctor`` flag the drift.
    """
    from pathlib import Path

    from .faultinjection import build_environment
    from .faultinjection.environment import save_stimuli
    from .fmea.io import save_worksheet
    from .zones.io import save_zones

    sub = _make_subsystem(args)
    env = build_environment(sub, quick=not args.full)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "netlist.v").write_text(write_verilog(env.circuit))
    save_zones(env.zone_set, outdir / "zones.json")
    save_worksheet(env.worksheet, outdir / "worksheet.json")
    save_stimuli(env.stimuli, outdir / "stimuli.json")
    print(f"project exported to {outdir}/ (netlist.v, zones.json, "
          f"worksheet.json, stimuli.json)")
    return EXIT_OK


def cmd_store(args) -> int:
    """Inspect, query, diff and collect the campaign store."""
    import json

    from .store import diff_runs, gc_store, store_stats
    from .store.query import run_summary_rows

    cache = _open_store(args)
    try:
        if args.store_command == "stats":
            print(render_kv(store_stats(cache).as_pairs(),
                            title="=== campaign store ==="))
            return 0

        if args.store_command == "query":
            if args.run is not None:
                run = cache.db.run(args.run)
                if run is None:
                    print(f"error: no recorded run #{args.run}",
                          file=sys.stderr)
                    return 1
                pairs = [(k, run[k]) for k in
                         ("run_id", "status", "design", "faults",
                          "hits", "misses", "workers",
                          "wall_seconds")]
                counts = json.loads(run["outcome_counts"] or "{}")
                pairs += [("outcome " + k, v)
                          for k, v in counts.items()]
                if run["measured_dc"] is not None:
                    pairs.append(("measured DC",
                                  pct(run["measured_dc"])))
                if run["safe_fraction"] is not None:
                    pairs.append(("safe fraction",
                                  pct(run["safe_fraction"])))
                attempts = cache.db.shard_attempt_rows(args.run)
                if attempts:
                    failed = sum(1 for a in attempts
                                 if a["status"] != "ok")
                    pairs.append(("shard attempts",
                                  f"{len(attempts)} "
                                  f"({failed} failed)"))
                print(render_kv(pairs,
                                title=f"=== run #{args.run} ==="))
                anomalies = cache.db.anomaly_rows(run_id=args.run)
                if anomalies:
                    print(render_table(
                        ["fault", "zone", "kind", "attempts",
                         "worker"],
                        [[a.fault_name, a.zone or "?", a.kind,
                          a.attempts, a.worker or "-"]
                         for a in anomalies],
                        title="quarantined faults"))
                return 0
            rows = run_summary_rows(cache, limit=args.limit,
                                    design=args.design)
            if not rows:
                print("store has no recorded runs")
                return 0
            print(render_table(
                ["run", "status", "design", "faults", "hits",
                 "misses", "DC", "safe", "DU", "Q", "wall"],
                rows, title="=== recorded campaign runs ==="))
            return 0

        if args.store_command == "diff":
            from .reporting.rundiff import render_run_diff
            try:
                diff = diff_runs(cache, args.run_a, args.run_b)
            except ValueError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            print(render_run_diff(diff))
            return 1 if diff.regressed_zones() else 0

        if args.store_command == "fsck":
            from .store.fsck import fsck_store
            result = fsck_store(cache, repair=args.repair)
            print(result.report.render(title="store fsck"))
            for line in result.repaired:
                print(f"repaired: {line}")
            print(result.summary())
            return (EXIT_OK if result.report.ok
                    else EXIT_DIAGNOSTIC)

        if args.store_command == "gc":
            result = gc_store(cache, keep_runs=args.keep)
            print(render_kv([
                ("runs removed", result.runs_removed),
                ("outcomes removed", result.outcomes_removed),
                ("blobs removed", result.blobs_removed),
                ("bytes reclaimed", result.bytes_reclaimed),
            ], title=f"=== store gc (kept last {args.keep} "
                     f"runs) ==="))
            return 0
        raise AssertionError(args.store_command)
    finally:
        cache.close()


def cmd_compare(args) -> int:
    """Baseline vs improved headline metrics (the §6 experiment)."""
    rows = []
    for label, factory in (("baseline", SubsystemConfig.baseline),
                           ("improved", SubsystemConfig.improved)):
        sub = MemorySubsystem(factory())
        zone_set = sub.extract_zones()
        totals = sub.worksheet(zone_set).totals()
        granted = max_sil(totals.sff, hft=0)
        rows.append([label, len(zone_set), pct(totals.sff),
                     pct(totals.dc),
                     granted.name if granted else "none",
                     "yes" if granted and granted >= SIL.SIL3
                     else "no"])
    print(render_table(
        ["variant", "zones", "SFF", "DC", "SIL @ HFT=0", "SIL3?"],
        rows, title="=== §6 experiment: baseline vs improved ==="))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soc-fmea",
        description="SoC-level FMEA for IEC 61508 (DATE'07 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="campaign-store directory (default: $SOCFMEA_STORE or "
             f"{DEFAULT_STORE}/)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p):
        # SUPPRESS keeps a top-level ``--store`` from being clobbered
        # by the subparser's default when the flag follows the command
        p.add_argument(
            "--store", default=argparse.SUPPRESS, metavar="PATH",
            help="campaign-store directory (default: $SOCFMEA_STORE "
                 f"or {DEFAULT_STORE}/)")

    def add_variant(p):
        p.add_argument("--variant", default="improved",
                       choices=["baseline", "improved",
                                "small-baseline", "small-improved"])

    p = sub.add_parser("zones", help="extract sensible zones")
    add_variant(p)
    p.add_argument("--list", action="store_true",
                   help="print every zone")
    p.add_argument("--netlist", metavar="FILE",
                   help="extract from a structural Verilog netlist "
                        "instead of a built-in variant")
    p.add_argument("--save", metavar="FILE",
                   help="write the extracted zones as a zone-config "
                        "JSON file")
    p.set_defaults(func=cmd_zones)

    p = sub.add_parser("fmea", help="build and print the worksheet")
    add_variant(p)
    p.add_argument("--hft", type=int, default=0)
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--csv", help="also export the sheet as CSV")
    p.add_argument("--load", metavar="FILE",
                   help="report on a saved worksheet JSON file "
                        "instead of building one")
    p.add_argument("--save", metavar="FILE",
                   help="write the worksheet as JSON")
    p.set_defaults(func=cmd_fmea)

    p = sub.add_parser("validate",
                       help="run the §5 fault-injection validation")
    add_variant(p)
    p.add_argument("--full", action="store_true",
                   help="use the full (slow) campaign workload")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sensitivity",
                       help="span S/D/F and fault-model assumptions")
    add_variant(p)
    p.add_argument("--tolerance", type=float, default=0.005)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("verilog", help="dump the structural netlist")
    add_variant(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("xcheck",
                       help="reset-coverage / X-propagation check")
    add_variant(p)
    p.add_argument("--reset-cycles", type=int, default=3)
    p.add_argument("--list", action="store_true",
                   help="list flops still X after reset")
    p.set_defaults(func=cmd_xcheck)

    p = sub.add_parser("derating",
                       help="measure the SET latch-window derating")
    add_variant(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=20)
    p.set_defaults(func=cmd_derating)

    p = sub.add_parser("dossier",
                       help="full certification dossier")
    add_variant(p)
    p.add_argument("--target-sil", type=int, default=3,
                   choices=[1, 2, 3, 4])
    p.add_argument("--hft", type=int, default=0)
    p.add_argument("--no-validation", action="store_true",
                   help="skip the injection campaign (faster)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dossier)

    def add_campaign_flags(p):
        # shared by ``campaign`` and ``jobs submit`` — together these
        # flags define one CampaignRequest (service/core.py)
        add_variant(p)
        p.add_argument(
            "--banks", type=int, default=1,
            help="replicate the variant into an N-bank scaled design "
                 "behind a shared bus (default: 1 = the flat variant)")
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes running shards at once "
                 "(default: 1)")
        p.add_argument("--shards", type=int, default=None,
                       help="shard count (default: one per worker)")
        p.add_argument("--sample", type=int, default=None,
                       help="randomly down-sample the fault list")
        p.add_argument(
            "--machines-per-pass", type=int, default=None,
            help="faults batched per simulation pass (default: "
                 "1023)")
        p.add_argument("--full", action="store_true",
                       help="use the full (slow) campaign workload")
        add_store(p)
        p.add_argument("--no-cache", action="store_true",
                       help="skip the campaign store: simulate every "
                            "fault and record nothing")
        p.add_argument(
            "--shard-timeout", type=float, default=None,
            metavar="SECONDS",
            help="kill and retry a shard whose worker exceeds "
                 "this wall-clock budget")
        p.add_argument(
            "--cycle-budget", type=int, default=None,
            metavar="CYCLES",
            help="per-pass simulator cycle watchdog: a runaway "
                 "pass is quarantined as a hang")
        p.add_argument(
            "--max-retries", type=int, default=2,
            help="failed-shard retries before bisecting to "
                 "isolate the poison fault (default: 2)")
        p.add_argument(
            "--no-quarantine", action="store_true",
            help="abort the campaign on an inexecutable fault "
                 "instead of quarantining it")
        p.add_argument(
            "--zones", metavar="FILE",
            help="restrict the campaign to a zone-config "
                 "file, cross-checked against the netlist")
        p.add_argument(
            "--stimuli", metavar="FILE",
            help="drive the campaign with a stimuli file "
                 "instead of the built-in workload")
        strictness = p.add_mutually_exclusive_group()
        strictness.add_argument(
            "--strict", action="store_true",
            help="abort with coded diagnostics when any configured "
                 "zone fails to resolve (default)")
        strictness.add_argument(
            "--degraded", action="store_true",
            help="skip unresolvable zones, run the rest, and bound "
                 "DC/SFF for the lost evidence (exit 3)")

    p = sub.add_parser("campaign",
                       help="run the injection campaign "
                            "(optionally across worker processes)")
    add_campaign_flags(p)
    p.add_argument("--progress", action="store_true",
                   help="print per-shard progress lines")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "explore",
        help="design-space exploration: Pareto search over "
             "protection mechanisms via incremental campaigns")
    p.add_argument("--variant", default="baseline",
                   choices=["baseline", "improved",
                            "small-baseline", "small-improved"],
                   help="base variant the search starts from "
                        "(default: baseline)")
    p.add_argument("--banks", type=int, default=2,
                   help="banks of the scaled design under search "
                        "(default: 2)")
    p.add_argument("--target-sff", type=float, default=0.99,
                   metavar="FRACTION",
                   help="stop once claimed SFF reaches this "
                        "(default: 0.99 = SIL3 @ HFT=0)")
    p.add_argument("--hft", type=int, default=0,
                   help="hardware fault tolerance for SIL claims")
    p.add_argument("--budget", type=int, default=12,
                   help="campaign budget: maximum evaluated points "
                        "including the base (default: 12)")
    p.add_argument("--probe-width", type=int, default=3,
                   help="candidate steps scored analytically per "
                        "iteration (default: 3)")
    p.add_argument("--full", action="store_true",
                   help="use the full (slow) campaign workload")
    p.add_argument("--workers", type=int, default=1,
                   help="campaign worker processes per evaluation")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the warm verification re-run of the "
                        "recommended configuration")
    p.add_argument("--project", default="default",
                   help="store namespace the evaluations land in")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-step progress lines")
    add_store(p)
    p.add_argument("-o", "--output",
                   help="write the dossier to a file instead of "
                        "stdout")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "serve", help="run the job-queue daemon: claim queued "
                      "campaigns, execute them, recover leases of "
                      "dead workers")
    add_store(p)
    p.add_argument("--workers", type=int, default=1,
                   help="claim loops to run (N>1 forks child "
                        "processes and replaces any that die)")
    p.add_argument("--lease", type=float, default=30.0,
                   metavar="SECONDS",
                   help="job lease length granted on claim and "
                        "renewed per heartbeat (default: 30)")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="how often a running job renews its lease "
                        "(default: 1)")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="fallback period of an idle claim loop: "
                        "queue changes made in this process wake it "
                        "at once, this period covers submits from "
                        "other processes, lease expiry and retry "
                        "backoff (default: 0.5)")
    p.add_argument("--drain", action="store_true",
                   help="exit once the queue holds no actionable "
                        "work instead of serving forever")
    p.add_argument("--http", metavar="HOST:PORT", default=None,
                   help="also serve the campaign HTTP/JSON API on "
                        "this address (docs §4j); port 0 picks an "
                        "ephemeral port")
    p.add_argument("--auth", metavar="FILE", default=None,
                   help="token/quota file for the HTTP API "
                        "(omit = open single-user mode)")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   metavar="N",
                   help="HTTP admission watermark: shed submits "
                        "with 429 once this many jobs are active "
                        "(default: 64)")
    p.add_argument("--no-workers", action="store_true",
                   help="with --http: serve the API only, leaving "
                        "execution to separate serve daemons on "
                        "the same store")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job lifecycle lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "jobs", help="submit and manage queued campaign jobs")
    add_store(p)
    jobs_sub = p.add_subparsers(dest="jobs_command", required=True)

    sp = jobs_sub.add_parser(
        "submit", help="queue a campaign for 'soc-fmea serve' "
                       "(same flags as the campaign verb)")
    add_campaign_flags(sp)
    sp.add_argument("--project", default="default",
                    help="store namespace the job's evidence lands "
                         "in (default: default = the store root)")
    sp.add_argument("--max-attempts", type=int, default=None,
                    help="execution attempts before the job is "
                         "dead-lettered (default: queue policy, 3)")
    sp.add_argument("--idempotency-key", default=None, metavar="KEY",
                    help="dedupe key: re-submitting with the same "
                         "key returns the existing job instead of "
                         "enqueuing a duplicate")
    sp.set_defaults(func=cmd_jobs)

    sp = jobs_sub.add_parser("status",
                             help="one job in detail (exit 3 if it "
                                  "is dead-lettered)")
    add_store(sp)
    sp.add_argument("job_id", type=int)
    sp.add_argument("--follow", action="store_true",
                    help="poll the job and print progress events "
                         "(the API stream's formatting, locally) "
                         "until it reaches a terminal state")
    sp.add_argument("--interval", type=float, default=0.5,
                    metavar="SECONDS",
                    help="poll period for --follow (default: 0.5)")
    sp.set_defaults(func=cmd_jobs)

    sp = jobs_sub.add_parser(
        "list", help="list jobs (exit 3 while any dead-letter job "
                     "exists)")
    add_store(sp)
    sp.add_argument("--status", default=None,
                    choices=["queued", "leased", "running", "done",
                             "dead", "cancelled"],
                    help="only jobs in this state")
    sp.add_argument("--project", default=None,
                    help="only jobs of this project")
    sp.set_defaults(func=cmd_jobs)

    sp = jobs_sub.add_parser(
        "cancel", help="cancel a queued or running job (a running "
                       "worker abandons it at its next heartbeat)")
    add_store(sp)
    sp.add_argument("job_id", type=int)
    sp.set_defaults(func=cmd_jobs)

    sp = jobs_sub.add_parser(
        "retry", help="re-queue a dead-letter or cancelled job with "
                      "a fresh attempt budget")
    add_store(sp)
    sp.add_argument("job_id", type=int)
    sp.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "chaos", help="self-FMEA: inject infrastructure failpoints "
                      "and verify every enumerated failure mode "
                      "recovers")
    p.add_argument("--list", action="store_true",
                   help="list the failpoint registry and exit")
    p.add_argument("--failpoint", action="append", metavar="NAME",
                   help="only scenarios of this failpoint "
                        "(repeatable)")
    p.add_argument("--kind", default=None,
                   choices=["enospc", "eio", "kill", "sleep",
                            "torn"],
                   help="only scenarios of this fault kind")
    p.add_argument("--quick", action="store_true",
                   help="smoke subset (the scenarios CI runs on "
                        "pull requests)")
    p.add_argument("--variant", default="small-improved",
                   choices=["baseline", "improved",
                            "small-baseline", "small-improved"],
                   help="campaign variant driven under injection "
                        "(default: small-improved)")
    p.add_argument("--timeout", type=float, default=300.0,
                   metavar="SECONDS",
                   help="per-subprocess budget (default: 300)")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep scratch stores here instead of a "
                        "temp dir")
    p.add_argument("--json", action="store_true",
                   help="machine-readable worksheet on stdout")
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write the report to a file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-scenario progress lines")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "doctor", help="audit netlist + zones + worksheet + stimuli "
                       "+ store; report all coded diagnostics")
    p.add_argument("project", nargs="?", default=".",
                   help="project directory to discover artifacts in "
                        "(default: .)")
    p.add_argument("--netlist", metavar="FILE")
    p.add_argument("--zones", metavar="FILE")
    p.add_argument("--worksheet", metavar="FILE")
    p.add_argument("--stimuli", metavar="FILE")
    add_store(p)
    p.add_argument("--no-store", action="store_true",
                   help="skip the campaign-store audit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diagnostic report on "
                        "stdout")
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "export", help="write a self-consistent project directory "
                       "(netlist, zones, worksheet, stimuli)")
    add_variant(p)
    p.add_argument("--full", action="store_true",
                   help="export the full (slow) campaign workload")
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("store",
                       help="inspect and query the campaign store")
    add_store(p)
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("stats", help="store-wide statistics")
    add_store(sp)
    sp.set_defaults(func=cmd_store)

    sp = store_sub.add_parser("query", help="list recorded runs")
    add_store(sp)
    sp.add_argument("--run", type=int, default=None,
                    help="show one run in detail")
    sp.add_argument("--design", default=None,
                    help="only runs of this design")
    sp.add_argument("--limit", type=int, default=20)
    sp.set_defaults(func=cmd_store)

    sp = store_sub.add_parser(
        "diff", help="compare two recorded runs zone by zone")
    add_store(sp)
    sp.add_argument("run_a", type=int, nargs="?", default=None,
                    help="reference run id (default: second newest)")
    sp.add_argument("run_b", type=int, nargs="?", default=None,
                    help="candidate run id (default: newest)")
    sp.set_defaults(func=cmd_store)

    sp = store_sub.add_parser(
        "fsck", help="audit store invariants (corrupt blobs, "
                     "dangling rows); --repair deletes broken "
                     "records so they re-simulate")
    add_store(sp)
    sp.add_argument("--repair", action="store_true",
                    help="delete every record that violates an "
                         "invariant (safe: deterministic "
                         "re-simulation restores it)")
    sp.set_defaults(func=cmd_store)

    sp = store_sub.add_parser(
        "gc", help="drop old runs and unreferenced blobs")
    add_store(sp)
    sp.add_argument("--keep", type=int, default=10,
                    help="completed runs to keep (default: 10)")
    sp.set_defaults(func=cmd_store)

    p = sub.add_parser("compare",
                       help="baseline vs improved headline table")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    from .diagnostics import DiagnosticError
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiagnosticError as err:
        print(err.report.render(title="error"), file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except KeyboardInterrupt:
        raise
    except BrokenPipeError:
        # the reader went away (e.g. `soc-fmea ... | head`): exit
        # quietly; devnull stdout so interpreter teardown can't raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except Exception as err:   # never leak a traceback to the shell
        if os.environ.get("SOCFMEA_DEBUG") == "1":
            raise
        print(f"E001 error: internal error: "
              f"{type(err).__name__}: {err}\n"
              f"    hint: re-run with SOCFMEA_DEBUG=1 for the full "
              f"traceback", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
