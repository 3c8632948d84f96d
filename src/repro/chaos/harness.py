"""Crash-consistency harness: fire every failpoint under a real
campaign, then prove the invariants held.

Each :class:`ChaosScenario` is one enumerated infrastructure failure
mode: a failpoint × fault-kind pair plus the FMEA columns (effect,
detection mechanism, recovery mechanism) that the self-FMEA worksheet
renders.  The harness executes the scenario in a *subprocess* with
``SOCFMEA_FAILPOINTS`` armed — a real ``soc-fmea campaign``, a
``jobs submit`` + ``serve --drain``, or (``api`` scenarios) a
``serve --http`` server driven by the retrying
:class:`repro.api.client.ApiClient` — and asserts the invariant
oracle:

1. the crash signature matches the injected fault (SIGKILL for
   kill/torn, a coded E413/E414 diagnostic with no traceback for
   disk faults, clean exit for tolerated stalls);
2. post-crash, ``store fsck`` is clean or ``--repair`` makes it so;
3. no job is lost or dead-lettered by the infrastructure fault, and
   every submitted job ends ``done`` after recovery;
4. the post-crash warm rerun reports DC/SFF bit-identical to an
   undisturbed cold run of the same campaign;
5. the final ``store fsck`` is clean.

``soc-fmea chaos`` sweeps these and renders the worksheet
(:mod:`repro.chaos.selffmea`); CI fails on any unverified mode.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .failpoints import REGISTRY, FailpointSpec, spec_string

#: repo source root (…/src), derived so subprocesses import this tree
_SRC = Path(__file__).resolve().parent.parent.parent

#: matches both the campaign report ("measured DC:   94.00%") and
#: the jobs-status detail ("result measured DC : 94.00%")
_METRIC_RE = {
    "dc": re.compile(r"measured DC\s*:\s*([0-9.]+%)"),
    "sff": re.compile(r"safe fraction\s*:\s*([0-9.]+%)"),
}


@dataclass(frozen=True)
class ChaosScenario:
    """One enumerated infrastructure failure mode + its injection."""

    failure_mode: str
    failpoint: str
    kind: str
    effect: str
    detection: str
    recovery: str
    mode: str = "campaign"        # campaign | service | api
    arg: float | None = None
    trigger_at: int = 1
    smoke: bool = False           # in the --quick (PR) subset
    #: service mode: extra ``jobs submit`` / armed ``serve`` options
    submit_args: tuple[str, ...] = ()
    serve_args: tuple[str, ...] = ()

    @property
    def spec(self) -> str:
        return spec_string([FailpointSpec(
            self.failpoint, self.kind, self.arg, self.trigger_at)])

    @property
    def key(self) -> tuple[str, str, int, str]:
        """Identity of the row in the worksheet."""
        return (self.failpoint, self.kind, self.trigger_at, self.mode)

    @property
    def slug(self) -> str:
        text = f"{self.failpoint}-{self.kind}"
        if self.trigger_at != 1:
            text += f"-{self.trigger_at}"
        if self.mode != "campaign":
            text += f"-{self.mode}"
        return re.sub(r"[^a-z0-9.-]+", "-", text.lower())


@dataclass
class OracleCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioResult:
    scenario: ChaosScenario
    checks: list[OracleCheck] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[OracleCheck]:
        return [c for c in self.checks if not c.passed]


def scenarios() -> list[ChaosScenario]:
    """The enumerated failure-mode worksheet (one scenario per row).

    Every failpoint in the registry must appear at least once —
    :meth:`ChaosHarness.sweep` enforces it, so a new injection site
    cannot ship without a verified recovery path.
    """
    _ = ChaosScenario
    return [
        # ---- blob store write protocol ----
        # A run writes one blob: the operational profile while
        # planning, before its run row opens (one index commit).  The
        # service-driven rows hit that write inside a daemon holding a
        # leased job; the campaign-driven rows hit it in a CLI run.
        _("blob write hits a full disk inside the daemon",
          "store.blob.pre-temp-write", "enospc", mode="service",
          effect="the leased job cannot store its operational "
                 "profile; it halts while planning",
          detection="coded E413 inside the daemon (no traceback)",
          recovery="the job is released (attempt refunded) and the "
                   "queue pauses; the next serve replays the profile "
                   "and completes it",
          smoke=True),
        _("daemon dies before the blob temp file exists",
          "store.blob.pre-temp-write", "kill", mode="service",
          effect="a leased job loses its worker with no blob and no "
                 "run row",
          detection="lease expiry",
          recovery="re-claim replays the profile and completes the "
                   "job"),
        _("torn blob temp write (lost page flush)",
          "store.blob.post-temp-write", "torn", mode="service",
          effect="the temp file is truncated and the daemon dies",
          detection="temp file never reaches its content address — "
                    "readers cannot see it; lease expiry",
          recovery="orphan temp is ignored; the re-claimed job "
                   "rewrites the blob"),
        _("daemon dies between blob temp fsync and rename",
          "store.blob.pre-rename", "kill", mode="service",
          effect="fully-written temp file, no visible blob, a leased "
                 "job with a dead owner",
          detection="lease expiry; readers and fsck see no blob",
          recovery="rename never happened: the re-claimed job "
                   "rewrites the blob"),
        _("torn blob after rename (power loss before data flush)",
          "store.blob.post-rename", "torn", mode="service",
          effect="a truncated object sits under its final content "
                 "address and the daemon dies",
          detection="checksum-on-read (CorruptBlobError) and fsck "
                    "E401",
          recovery="fsck --repair deletes the torn blob; the "
                   "re-claimed job replays the profile and rewrites "
                   "it",
          smoke=True),
        _("device i/o error after blob rename",
          "store.blob.post-rename", "eio", mode="service",
          effect="the durability fsync fails after the object is "
                 "visible",
          detection="coded E414 inside the daemon (no traceback)",
          recovery="blob content is already correct (checksummed); "
                   "the job is released and the next serve verifies "
                   "and completes it"),
        _("profile blob write hits a full disk",
          "store.blob.pre-temp-write", "enospc",
          effect="the operational profile cannot be stored; the "
                 "campaign halts while planning",
          detection="coded E413 diagnostic (no traceback)",
          recovery="store unchanged (no run row yet); the rerun "
                   "replays the profile and completes"),
        _("crash before the profile blob temp file exists",
          "store.blob.pre-temp-write", "kill",
          effect="process dies while planning, before any blob or "
                 "run row exists",
          detection="SIGKILL seen by the caller; the store holds no "
                    "partial state",
          recovery="the rerun replays the profile and completes"),
        _("crash between profile temp fsync and rename",
          "store.blob.pre-rename", "kill",
          effect="fully-written profile temp file, no visible blob, "
                 "no run row",
          detection="readers and fsck see an unchanged store",
          recovery="rename never happened; the rerun replays and "
                   "rewrites the profile"),
        _("torn profile blob after rename",
          "store.blob.post-rename", "torn",
          effect="a truncated profile sits under its content address",
          detection="checksum-on-read (CorruptBlobError) and fsck "
                    "E401",
          recovery="fsck --repair deletes the torn blob; the warm "
                   "rerun replays the profile and rewrites it"),
        # ---- store index transactions (campaign-driven) ----
        # commits of a cold run: profile index, run row, then one per
        # shard — @5 is the third shard's
        _("crash mid index write transaction",
          "store.db.pre-commit", "kill", trigger_at=5,
          effect="the process dies between two shard commits",
          detection="SQLite WAL atomicity: the open transaction "
                    "never becomes visible; fsck E408",
          recovery="warm rerun resumes from the last committed "
                   "shard (only missing cones re-simulate)",
          smoke=True),
        _("index write hits a full disk",
          "store.db.pre-commit", "enospc", trigger_at=5,
          effect="a shard flush cannot commit",
          detection="coded E413 diagnostic (no traceback)",
          recovery="committed evidence intact; warm rerun completes "
                   "once space clears"),
        _("crash immediately after an index commit",
          "store.db.post-commit", "kill", trigger_at=5,
          effect="evidence is durable but the campaign never "
                 "finalizes",
          detection="fsck flags the interrupted run (E408)",
          recovery="warm rerun reuses every committed row "
                   "bit-identically"),
        # ---- queue protocol (service-driven) ----
        _("daemon dies after claiming, before executing",
          "queue.claim", "kill", mode="service",
          effect="a leased job with a dead owner",
          detection="lease expiry: heartbeats stop and the deadline "
                    "passes (+ skew grace)",
          recovery="any healthy serve re-claims and executes; the "
                   "attempt budget bounds repeats",
          smoke=True),
        _("store unavailable at claim (disk full)",
          "queue.claim", "enospc", mode="service",
          effect="the daemon cannot take work",
          detection="coded E413 surfaced by the claim path",
          recovery="the queue pauses — jobs stay queued, nothing "
                   "dead-letters"),
        _("heartbeat stalls past the lease (GC pause / clock skew)",
          "queue.heartbeat", "sleep", arg=3.0, mode="service",
          effect="the lease deadline passes while the worker is "
                 "alive but silent",
          detection="owner-fenced monotonic renewal: an un-stolen "
                    "lease renews late; a stolen one raises "
                    "JobLeaseLost (skew_grace absorbs real clock "
                    "skew)",
          recovery="the job completes exactly once either way"),
        # one fault per pass and a 0.05 s heartbeat: the quick job
        # runs about 0.5 s and its third heartbeat lands near 0.2 s
        _("daemon killed mid-execution (between heartbeats)",
          "queue.heartbeat", "kill", trigger_at=3, mode="service",
          submit_args=("--machines-per-pass", "1"),
          serve_args=("--heartbeat-interval", "0.05"),
          effect="a running job loses its worker mid-campaign",
          detection="lease expiry after the missed heartbeat",
          recovery="re-claim resumes from the store: committed "
                   "shards are not re-simulated",
          smoke=True),
        _("crash between store commit and job completion",
          "queue.transition", "kill", mode="service",
          effect="all evidence durable, job still marked running",
          detection="lease expiry",
          recovery="re-claim replays warm (zero simulations) and "
                   "completes idempotently",
          smoke=True),
        _("disk fills while a job executes",
          "store.db.pre-commit", "enospc", trigger_at=8,
          mode="service",
          effect="the executing campaign cannot flush a shard",
          detection="coded E413 inside the daemon",
          recovery="the job is *released* (attempt refunded, E413 "
                   "recorded) and the queue pauses — no "
                   "dead-letter; the next serve completes it",
          smoke=True),
        # ---- daemon lifecycle (service-driven) ----
        _("daemon dies at startup",
          "daemon.spawn", "kill", mode="service",
          effect="serve exits before claiming anything",
          detection="queue state unchanged (jobs still queued)",
          recovery="the next serve runs the queue normally"),
        _("daemon dies deciding the queue is drained",
          "daemon.drain", "kill", mode="service",
          effect="work is complete but the clean exit is lost",
          detection="all jobs already terminal; fsck clean",
          recovery="a rerun drains immediately with no work to do"),
        # ---- HTTP API front end (client-driven) ----
        _("server killed accepting a connection",
          "api.accept", "kill", mode="api",
          effect="the submit never reaches the queue; the client "
                 "sees a dropped connection",
          detection="client transport error (connection reset/"
                    "refused)",
          recovery="client retries the same idempotency key against "
                   "the restarted server; exactly one job enqueues"),
        _("server killed during submit admission control",
          "api.quota-check", "kill", mode="api",
          effect="death between authn/quota checks and the enqueue",
          detection="client transport error; queue unchanged (the "
                    "admission transaction never ran)",
          recovery="idempotency-key retry converges to one job",
          smoke=True),
        _("store fault during submit admission (disk full)",
          "api.quota-check", "enospc", mode="api",
          effect="the admission path cannot read the queue",
          detection="coded 503 E428 + Retry-After (no traceback); "
                    "the server stays up",
          recovery="client backs off per Retry-After; once the "
                   "store recovers (restart here), the same key "
                   "submits exactly once"),
        _("server killed after enqueue, before the response",
          "api.pre-response", "kill", mode="api",
          effect="the job is durable but the client never hears — "
                 "the classic lost-ack double-submit window",
          detection="client transport error on a submit that "
                    "actually landed",
          recovery="the retried key dedupes onto the enqueued job; "
                   "the re-claimed job resumes warm from the store",
          smoke=True),
        _("server killed after the response is flushed",
          "api.post-response", "kill", mode="api",
          effect="client holds the job id; server (and its embedded "
                 "worker) die mid-campaign",
          detection="lease expiry on the orphaned job",
          recovery="the restarted serve re-claims and completes "
                   "warm; a duplicate submit dedupes"),
        # the second snapshot written: an embedded worker claims on
        # submit, so a stream of a quick job writes only two (running
        # and done) and the kill lands before the terminal one
        _("server killed mid progress stream",
          "api.stream", "kill", trigger_at=2, mode="api",
          effect="the chunked event stream dies mid-campaign",
          detection="client stream EOF without a terminal snapshot",
          recovery="events are state snapshots: the reconnected "
                   "stream resumes from current state, and the job "
                   "completes bit-identically",
          smoke=True),
    ]


class ChaosHarness:
    """Executes scenarios against scratch stores under a workdir."""

    def __init__(self, workdir: str | Path,
                 variant: str = "small-improved",
                 progress=None, timeout: float = 300.0):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.variant = variant
        self.progress = progress
        self.timeout = timeout
        self._reference: dict[str, str] | None = None

    # ------------------------------------------------------------------
    # subprocess plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _env(failpoints: str | None = None) -> dict:
        env = {**os.environ,
               "PYTHONPATH": str(_SRC) + (
                   os.pathsep + os.environ["PYTHONPATH"]
                   if os.environ.get("PYTHONPATH") else "")}
        env.pop("SOCFMEA_FAILPOINTS", None)
        if failpoints:
            env["SOCFMEA_FAILPOINTS"] = failpoints
        return env

    def _cli(self, args: list[str], store: Path,
             failpoints: str | None = None,
             timeout: float | None = None):
        env = self._env(failpoints)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli",
             *args, "--store", str(store)],
            capture_output=True, text=True, env=env,
            timeout=timeout or self.timeout)

    def _campaign_args(self) -> list[str]:
        # 4 shards → several index commits per run, so @N triggers
        # can land between two of them
        return ["campaign", "--variant", self.variant,
                "--shards", "4"]

    def _submit_args(self) -> list[str]:
        return ["jobs", "submit", "--variant", self.variant,
                "--shards", "4"]

    def _serve_args(self) -> list[str]:
        return ["serve", "--drain", "--lease", "2",
                "--heartbeat-interval", "0.2",
                "--poll-interval", "0.1"]

    @staticmethod
    def _free_port() -> int:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def _serve_http(self, store: Path, port: int,
                    failpoints: str | None = None):
        """Start ``serve --http`` as a long-lived subprocess (its
        embedded workers use the same tight lease as ``--drain``
        runs, so re-claim after a crash is quick)."""
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli",
             "serve", "--http", f"127.0.0.1:{port}",
             "--lease", "2", "--heartbeat-interval", "0.2",
             "--poll-interval", "0.1", "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self._env(failpoints))

    @staticmethod
    def _metrics(text: str) -> dict[str, str]:
        out = {}
        for key, rx in _METRIC_RE.items():
            match = rx.search(text)
            if match:
                out[key] = match.group(1)
        return out

    # ------------------------------------------------------------------
    # the undisturbed cold reference
    # ------------------------------------------------------------------
    def reference(self) -> dict[str, str]:
        """DC/SFF of a cold, undisturbed run (computed once)."""
        if self._reference is None:
            store = self.workdir / "store-reference"
            proc = self._cli(self._campaign_args(), store)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"reference campaign failed "
                    f"(exit {proc.returncode}):\n{proc.stderr}")
            metrics = self._metrics(proc.stdout)
            if set(metrics) != {"dc", "sff"}:
                raise RuntimeError(
                    "reference campaign printed no DC/SFF:\n"
                    + proc.stdout)
            self._reference = metrics
        return self._reference

    # ------------------------------------------------------------------
    # oracle pieces
    # ------------------------------------------------------------------
    def _check_crash(self, scenario: ChaosScenario, proc,
                     checks: list[OracleCheck]) -> None:
        kind = scenario.kind
        if kind in ("kill", "torn"):
            checks.append(OracleCheck(
                "crash signature",
                proc.returncode == -9,
                f"expected SIGKILL (-9), got exit "
                f"{proc.returncode}"))
        elif kind in ("enospc", "eio"):
            code = "E413" if kind == "enospc" else "E414"
            if scenario.mode == "campaign":
                blob = proc.stdout + proc.stderr
                checks.append(OracleCheck(
                    "coded diagnostic",
                    proc.returncode == 2 and code in blob
                    and "Traceback" not in blob,
                    f"expected exit 2 with {code} and no traceback; "
                    f"got exit {proc.returncode}"))
            else:
                # the daemon absorbs the fault: pause + release, then
                # a clean drain exit — never a crash
                blob = proc.stdout + proc.stderr
                checks.append(OracleCheck(
                    "daemon absorbs the fault",
                    proc.returncode == 0 and "Traceback" not in blob,
                    f"expected exit 0 without traceback, got exit "
                    f"{proc.returncode}:\n{proc.stderr[-500:]}"))
        else:                       # sleep: tolerated, no crash
            checks.append(OracleCheck(
                "stall tolerated",
                proc.returncode == 0,
                f"expected exit 0, got {proc.returncode}:"
                f"\n{proc.stderr[-500:]}"))

    def _check_fsck(self, store: Path, checks: list[OracleCheck],
                    label: str, repair: bool) -> None:
        fsck = self._cli(["store", "fsck"], store)
        if fsck.returncode == 0:
            checks.append(OracleCheck(label, True))
            return
        if not repair:
            checks.append(OracleCheck(
                label, False,
                f"fsck exit {fsck.returncode}:\n{fsck.stdout}"
                f"{fsck.stderr}"))
            return
        self._cli(["store", "fsck", "--repair"], store)
        again = self._cli(["store", "fsck"], store)
        checks.append(OracleCheck(
            label, again.returncode == 0,
            f"unrepairable: fsck exit {again.returncode} after "
            f"--repair:\n{again.stdout}{again.stderr}"))

    def _check_jobs_done(self, store: Path,
                         checks: list[OracleCheck]) -> None:
        status = self._cli(["jobs", "status", "1"], store)
        text = status.stdout
        done = re.search(r"status\s*:\s*done", text) is not None
        dead_free = self._cli(["jobs", "list"], store)
        checks.append(OracleCheck(
            "no job lost or dead-lettered",
            done and dead_free.returncode == 0,
            f"jobs status exit {status.returncode} "
            f"(list exit {dead_free.returncode}):\n{text}"))
        metrics = self._metrics(text)
        ref = self.reference()
        checks.append(OracleCheck(
            "warm result bit-identical to cold run",
            metrics.get("dc") == ref["dc"]
            and metrics.get("sff") == ref["sff"],
            f"job result {metrics} != reference {ref}"))

    # ------------------------------------------------------------------
    # HTTP API scenarios (client-driven)
    # ------------------------------------------------------------------
    def _run_api(self, scenario: ChaosScenario, store: Path,
                 checks: list[OracleCheck]) -> None:
        """Drive an armed ``serve --http`` through the retrying
        client, crash (or shed) it, then prove the idempotency-key
        retry against an unarmed restart converges on exactly one
        completed, bit-identical job."""
        from ..api.client import ApiClient, ApiClientError

        key = f"chaos-{scenario.slug}"
        spec = {"variant": self.variant, "shards": 4}

        def client_for(port: int) -> ApiClient:
            return ApiClient("127.0.0.1", port, max_retries=2,
                             backoff_base=0.1, backoff_cap=0.5,
                             backoff_seed=7, timeout=5.0)

        port = self._free_port()
        proc = self._serve_http(store, port,
                                failpoints=scenario.spec)
        client = client_for(port)
        submitted: dict | None = None

        if scenario.kind == "kill":
            # the submit retry loop doubles as the readiness wait:
            # keep offering the same idempotency key until the armed
            # server dies under us (accept / quota-check /
            # pre-response) or the submit lands (post-response /
            # stream)
            deadline = time.monotonic() + self.timeout
            while proc.poll() is None \
                    and time.monotonic() < deadline:
                try:
                    submitted = client.submit(
                        spec, idempotency_key=key)
                    break
                except ApiClientError:
                    time.sleep(0.2)
            if scenario.failpoint == "api.stream":
                checks.append(OracleCheck(
                    "submit accepted before the stream",
                    submitted is not None,
                    "submit never succeeded against the armed "
                    "server"))
                if submitted is not None:
                    try:
                        for _event in client.stream(
                                submitted["job"]):
                            pass
                    except ApiClientError:
                        pass    # the kill severs the stream
            survived = False
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                survived = True
                proc.kill()
                out, err = proc.communicate()
            checks.append(OracleCheck(
                "crash signature",
                not survived and proc.returncode == -9,
                "armed server outlived the fault (killed by "
                "harness)" if survived else
                f"expected SIGKILL (-9), got exit "
                f"{proc.returncode}"))
        else:                   # enospc: shed coded, never crash
            ready = False
            deadline = time.monotonic() + 30
            while proc.poll() is None \
                    and time.monotonic() < deadline:
                try:
                    client.health()
                    ready = True
                    break
                except ApiClientError:
                    time.sleep(0.2)
            checks.append(OracleCheck(
                "armed server serves /healthz", ready,
                f"server never became healthy "
                f"(exit {proc.poll()})"))
            shed: Exception | None = None
            try:
                submitted = client.submit(spec,
                                          idempotency_key=key)
            except ApiClientError as exc:
                shed = exc
            checks.append(OracleCheck(
                "submit shed with coded 503 E428",
                shed is not None and "E428" in str(shed),
                f"expected a coded E428 shed, got "
                f"{shed or submitted}"))
            submitted = None    # nothing enqueued under the fault
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            checks.append(OracleCheck(
                "server absorbs the fault",
                proc.returncode == 0
                and "Traceback" not in out + err,
                f"expected clean SIGTERM exit without traceback, "
                f"got exit {proc.returncode}:\n{(err or out)[-500:]}"))

        self._check_fsck(store, checks,
                         "post-crash fsck repairable", True)

        # recovery: an unarmed server, the *same* idempotency key
        port = self._free_port()
        recover = self._serve_http(store, port)
        client = client_for(port)
        second: dict | None = None
        try:
            deadline = time.monotonic() + self.timeout
            while recover.poll() is None \
                    and time.monotonic() < deadline:
                try:
                    second = client.submit(spec,
                                           idempotency_key=key)
                    break
                except ApiClientError:
                    time.sleep(0.2)
            listing = client.jobs() if second is not None else []
            checks.append(OracleCheck(
                "idempotent retry converges to one job",
                second is not None and len(listing) == 1
                and (submitted is None
                     or second["job"] == submitted["job"]),
                f"retried submit {second} against first "
                f"{submitted}; queue holds {len(listing)} job(s)"))
            done: dict | None = None
            if second is not None:
                try:
                    done = client.wait(second["job"],
                                       timeout=self.timeout)
                except ApiClientError as exc:
                    done = {"status": f"wait failed: {exc}"}
            checks.append(OracleCheck(
                "job completes after recovery",
                bool(done) and done.get("status") == "done",
                f"final state: {done}"))
        finally:
            if recover.poll() is None:
                recover.send_signal(signal.SIGTERM)
            try:
                out, err = recover.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                recover.kill()
                out, err = recover.communicate()
        checks.append(OracleCheck(
            "recovery server drains cleanly on SIGTERM",
            recover.returncode == 0,
            f"exit {recover.returncode}:\n{(err or out)[-500:]}"))
        self._check_jobs_done(store, checks)

    # ------------------------------------------------------------------
    # scenario execution
    # ------------------------------------------------------------------
    def run(self, scenario: ChaosScenario) -> ScenarioResult:
        start = time.time()
        result = ScenarioResult(scenario)
        checks = result.checks
        store = self.workdir / f"store-{scenario.slug}"
        if self.progress is not None:
            self.progress(f"{scenario.failure_mode} "
                          f"[{scenario.spec}]")

        if scenario.mode == "campaign":
            proc = self._cli(self._campaign_args(), store,
                             failpoints=scenario.spec)
            self._check_crash(scenario, proc, checks)
            self._check_fsck(store, checks,
                             "post-crash fsck repairable", True)
            rerun = self._cli(self._campaign_args(), store)
            metrics = self._metrics(rerun.stdout)
            ref = self.reference()
            checks.append(OracleCheck(
                "warm rerun bit-identical to cold run",
                rerun.returncode == 0 and metrics == ref,
                f"rerun exit {rerun.returncode}, metrics {metrics} "
                f"!= reference {ref}:\n{rerun.stderr[-500:]}"))
        elif scenario.mode == "api":
            self._run_api(scenario, store, checks)
        else:
            submit = self._cli(
                self._submit_args() + list(scenario.submit_args), store)
            checks.append(OracleCheck(
                "job submitted", submit.returncode == 0,
                f"submit exit {submit.returncode}:"
                f"\n{submit.stderr[-300:]}"))
            proc = self._cli(
                self._serve_args() + list(scenario.serve_args), store,
                failpoints=scenario.spec)
            self._check_crash(scenario, proc, checks)
            self._check_fsck(store, checks,
                             "post-crash fsck repairable", True)
            # recovery: an unarmed daemon drains the queue (waiting
            # out the dead owner's lease + skew grace if needed)
            recover = self._cli(self._serve_args(), store)
            checks.append(OracleCheck(
                "recovery serve drains cleanly",
                recover.returncode == 0,
                f"serve exit {recover.returncode}:"
                f"\n{recover.stderr[-500:]}\n{recover.stdout[-500:]}"))
            self._check_jobs_done(store, checks)

        self._check_fsck(store, checks, "final fsck clean", False)
        result.seconds = time.time() - start
        return result

    def sweep(self, selected: list[ChaosScenario] | None = None
              ) -> list[ScenarioResult]:
        """Run scenarios (default: all), enforcing that the full set
        covers every registered failpoint."""
        full = scenarios()
        uncovered = set(REGISTRY) - {s.failpoint for s in full}
        if uncovered:
            raise RuntimeError(
                f"failpoints with no chaos scenario: "
                f"{', '.join(sorted(uncovered))}")
        self.reference()            # fail fast if the baseline breaks
        return [self.run(s) for s in (selected
                                      if selected is not None
                                      else full)]
