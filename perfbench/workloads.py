"""The benchmark's workloads, driven through the public API.

All three are closed loops: one caller, one connection at a time,
``workers=1``.  Constructing a workload is its set-up: it builds the
inputs and takes the reference DC/SFF.  Its ``op`` runs one timed
operation and returns what it resolved and every way it disagreed
with that reference.

* ``cold-campaign`` — the first campaign at the paper's ~170-zone
  scale into a fresh store: every layer does real work and the kernel
  is the largest share.
* ``warm-jobs`` — an unchanged rerun through the HTTP service with a
  seeded store: 100% hits and no simulation, so elaboration,
  profiling, fingerprinting, store reads, queue and API take all the
  time and a kernel change must not show.
* ``explore-incremental`` — the paper's §6 improvement arc as a
  search: per-variant re-elaboration, with store writes for touched
  cones beside reads for untouched ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import ApiClient, ApiClientError, ApiConfig, ApiServer
from repro.api.events import is_terminal
from repro.explore import ExploreConfig, explore
from repro.faultinjection.environment import save_stimuli
from repro.reporting.tables import pct
from repro.service import CampaignRequest, CampaignService
from repro.service.core import EXIT_OK, make_subsystem
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.soc import workloads as builders

#: the seed ``validation_workload`` hard-codes for its random traffic
REFERENCE_SEED = 7
VARIANT = "small-baseline"
BANKS = 2
#: the warm-jobs server's claim and stream poll period
POLL_S = 0.05

#: the metric fields every campaign result is compared on
RESULT_FIELDS = ("measured_dc", "safe_fraction", "claimed_sff",
                 "claimed_dc")


class SeedError(ValueError):
    """A ``--seed`` whose traffic segment would shift the test
    windows of the §5 workload."""


def _traffic(sub, seed: int):
    return builders.random_traffic(sub, n_ops=48, seed=seed, scrub_en=1)


def compose_stimuli(sub, seed: int):
    """The §5 full validation workload with its random-traffic segment
    drawn from ``seed``; seed 7 is ``validation_workload(sub)``.

    Raises :class:`SeedError` when the segment's length differs from
    seed 7's, because every later phase — and the test windows the
    campaign classifies detections by — would move.
    """
    segment = _traffic(sub, seed)
    expected = len(_traffic(sub, REFERENCE_SEED))
    if len(segment) != expected:
        raise SeedError(
            f"seed {seed} gives a {len(segment)}-cycle random-traffic "
            f"segment but seed {REFERENCE_SEED} gives {expected}; the "
            f"workload's test windows would no longer line up — "
            f"choose another seed")
    return (builders.startup_bist(sub) + builders.march_test(sub)
            + segment + builders.app_profile(sub)
            + builders.error_selftest(sub, scrub_en=1)
            + builders.mpu_probe(sub) + builders.scrub_exercise(sub)
            + builders.bist_selftest(sub))


def check_reference_seed(sub) -> None:
    """Seed 7 must reproduce ``validation_workload(full)`` exactly."""
    mine = compose_stimuli(sub, REFERENCE_SEED)
    theirs = builders.validation_workload(sub, quick=False)
    if (mine.stimuli != theirs.stimuli
            or mine.test_windows() != theirs.test_windows()):
        raise AssertionError(
            "stimuli composed for seed 7 differ from "
            "validation_workload(full=True)")


def _pct(value) -> str:
    return pct(value) if value is not None else "n/a"


def campaign_view(result: dict) -> dict:
    """What a campaign result is compared on: exit code, fault count
    and the DC/SFF figures as the reports print them."""
    view = {"exit_code": result.get("exit_code"),
            "faults": result.get("faults")}
    view.update({name: _pct(result.get(name)) for name in RESULT_FIELDS})
    return view


def mismatches(reference: dict, observed: dict) -> list[str]:
    return [f"{key}: expected {value!r}, got {observed.get(key)!r}"
            for key, value in reference.items()
            if observed.get(key) != value]


@dataclass
class OpResult:
    """One timed operation: its host time and what it resolved."""

    seconds: float = 0.0
    #: faults resolved, store hits and simulated faults alike
    faults: int = 0
    problems: list[str] = field(default_factory=list)
    #: when the client saw the job's terminal event (warm-jobs)
    terminal_seen: float | None = None
    #: shed (429/503) responses the client absorbed during the op
    shed: int = 0


class Stopwatch:
    """Times one op's measured region; in a traced op it also opens
    and closes the op's root span."""

    def __init__(self, tracer=None, op: int = 0):
        self.tracer = tracer
        self.op = op
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        if self.tracer is not None:
            self.tracer.begin_op(self.op)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end_op()


def _request(stimuli: Path, **kw) -> CampaignRequest:
    return CampaignRequest(variant=VARIANT, banks=BANKS, full=True,
                           stimuli=str(stimuli), **kw)


def _write_stimuli(work: Path, seed: int) -> Path:
    sub = make_subsystem(VARIANT, banks=BANKS)
    check_reference_seed(sub)
    path = work / "stimuli.json"
    save_stimuli(compose_stimuli(sub, seed), path)
    return path


def _uncached_reference(stimuli: Path, work: Path) -> dict:
    outcome = CampaignService(work / "reference").run_campaign(
        _request(stimuli, use_cache=False))
    return campaign_view(outcome.summary_dict())


# ----------------------------------------------------------------------
# cold-campaign
# ----------------------------------------------------------------------
class ColdCampaign:
    """One op: a supervised campaign into a fresh store."""

    def __init__(self, work: Path, seed: int):
        self.stimuli = _write_stimuli(work, seed)
        self.reference = _uncached_reference(self.stimuli, work)

    def op(self, watch: Stopwatch, store: Path) -> OpResult:
        with watch:
            outcome = CampaignService(store).run_campaign(
                _request(self.stimuli))
        result = OpResult(seconds=watch.seconds,
                          faults=outcome.hits + outcome.simulated)
        result.problems = mismatches(
            self.reference, campaign_view(outcome.summary_dict()))
        if outcome.hits or outcome.simulated != outcome.faults:
            result.problems.append(
                f"a cold campaign must simulate every fault: "
                f"{outcome.simulated} of {outcome.faults} simulated, "
                f"{outcome.hits} hits")
        return result

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# warm-jobs
# ----------------------------------------------------------------------
class CountingClient(ApiClient):
    """The stock client, counting the shed responses it retried."""

    shed = 0

    def _once(self, method, path, body):
        status, headers, payload = super()._once(method, path, body)
        if status in (429, 503):
            self.shed += 1
        return status, headers, payload


class WarmJobs:
    """One op: submit the seeded request over HTTP, follow its event
    stream to the terminal snapshot and check the result."""

    def __init__(self, work: Path, seed: int):
        self.stimuli = _write_stimuli(work, seed)
        self.reference = _uncached_reference(self.stimuli, work)
        store = work / "store"
        seeded = CampaignService(store).run_campaign(
            _request(self.stimuli))
        problems = mismatches(self.reference,
                              campaign_view(seeded.summary_dict()))
        if problems:
            raise AssertionError(
                "seeding the store disagreed with the uncached "
                "reference: " + "; ".join(problems))
        # what ``soc-fmea serve --http --workers 1 --poll-interval
        # 0.05`` builds, in-process.  Both idle polls run at 50 ms: at
        # the 0.5 s claim / 0.2 s stream defaults a closed loop locks
        # onto the poll grid, and the op time jumps by whole periods
        # instead of following the work.
        self.server = ApiServer(
            store, ApiConfig(verbose=False, stream_poll_interval=POLL_S),
            daemon=ServiceDaemon(store, DaemonConfig(
                workers=1, poll_interval=POLL_S, verbose=False)))
        self.thread = threading.Thread(target=self.server.run,
                                       name="perfbench-api",
                                       daemon=True)
        self.thread.start()
        if not self.server.wait_started(30):
            raise RuntimeError("the API server did not start")
        self.client = CountingClient("127.0.0.1", self.server.port)
        self.spec = _request(self.stimuli).to_dict()

    def op(self, watch: Stopwatch, store: Path) -> OpResult:
        shed_before = self.client.shed
        result = OpResult()
        terminal = None
        try:
            with watch:
                job = self.client.submit(self.spec)["job"]
                for event in self.client.stream(job):
                    if is_terminal(event):
                        terminal = event
                        result.terminal_seen = time.perf_counter()
        except ApiClientError as err:
            result.problems.append(f"HTTP error: {err}")
        result.seconds = watch.seconds
        result.shed = self.client.shed - shed_before
        if result.shed:
            result.problems.append(f"{result.shed} shed response(s)")
        if terminal is None:
            result.problems.append("no terminal event")
            return result
        summary = terminal.get("result") or {}
        result.faults = (summary.get("hits") or 0) \
            + (summary.get("simulated") or 0)
        if terminal.get("status") != "done":
            result.problems.append(
                f"job ended {terminal.get('status')!r}")
        result.problems += mismatches(self.reference,
                                      campaign_view(summary))
        if summary.get("simulated") != 0 \
                or summary.get("hits") != summary.get("faults"):
            result.problems.append(
                f"a warm rerun must be all hits: "
                f"{summary.get('hits')} hits of {summary.get('faults')},"
                f" {summary.get('simulated')} simulated")
        return result

    def close(self) -> None:
        self.server.stop()
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("the API server did not drain")


# ----------------------------------------------------------------------
# explore-incremental
# ----------------------------------------------------------------------
EXPLORE_CONFIG = dict(variant=VARIANT, banks=BANKS, target_sff=0.97,
                      budget=3)


def exploration_view(result) -> dict:
    """Per-point metrics, the recommended point and the simulated
    total of one exploration."""
    points = list(result.evaluations)
    if result.verification is not None:
        points.append(result.verification)
    view = {"exit_code": EXIT_OK if result.target_met else 3,
            "recommended": result.recommended.point.name
            if result.recommended is not None else None,
            "total_simulated": result.total_simulated}
    for i, point in enumerate(points):
        view[f"point{i}.name"] = point.point.name
        view[f"point{i}.exit_code"] = point.exit_code
        for name in RESULT_FIELDS:
            view[f"point{i}.{name}"] = _pct(getattr(point, name))
    return view


class ExploreIncremental:
    """One op: a budget-3 exploration into a fresh store through the
    job queue, with the CLI's defaults; the seed is not used because
    ``ExploreConfig`` takes no stimuli."""

    def __init__(self, work: Path, seed: int):
        first = explore(CampaignService(work / "reference"),
                        ExploreConfig(**EXPLORE_CONFIG))
        self.reference = exploration_view(first)

    def op(self, watch: Stopwatch, store: Path) -> OpResult:
        with watch:
            outcome = explore(CampaignService(store),
                              ExploreConfig(**EXPLORE_CONFIG))
        result = OpResult(seconds=watch.seconds,
                          faults=outcome.total_hits
                          + outcome.total_misses)
        result.problems = mismatches(self.reference,
                                     exploration_view(outcome))
        return result

    def close(self) -> None:
        pass


WORKLOADS = {
    "cold-campaign": ColdCampaign,
    "warm-jobs": WarmJobs,
    "explore-incremental": ExploreIncremental,
}
