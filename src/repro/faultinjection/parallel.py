"""Building blocks of sharded fault-injection campaigns.

The :class:`~repro.faultinjection.manager.FaultInjectionManager`
multiplexes many faulty machines (1023 by default) into each
simulator pass, but the passes of one shard run one after another in
a single Python process.
:class:`~repro.faultinjection.supervisor.CampaignSupervisor`, the one
campaign executor, distributes them across worker *processes* using
the pieces defined here:

* the candidate list is **deterministically sharded** into contiguous
  batches (:func:`shard_candidates`) so that concatenating the
  per-shard result lists in shard order reproduces the exact per-fault
  ordering of a one-shard run;
* a campaign is described by a **picklable** :class:`CampaignSpec`
  — circuit, stimuli, zones, observation points, configuration and
  the setup as data (see :class:`MemoryImageSetup`); the supervisor
  builds one manager from it, builds its compiled program once (or
  finds the environment's built), and hands it to every worker;
* the **golden (fault-free) trace** is derived once in the parent
  (:func:`compute_golden_trace`) from the per-net first events the
  operational-profile replay recorded, and its activity bits are
  merged into the final coverage ledger; the pass loop keeps no
  golden bookkeeping of its own;
* per-shard wall-clock / fault-count statistics
  (:class:`CampaignStats`) and a shielded progress callback
  (:class:`SafeProgress`) give campaign observability.

Because each fault occupies its own machine-bit and is only ever
compared against machine 0 of its own pass, per-fault results are
independent of how faults are grouped into passes; the merged
:class:`~repro.faultinjection.manager.CampaignResult` is therefore
bit-identical in outcome counts, ``measured_dc`` and
``measured_safe_fraction`` regardless of worker count or shard order
(``tests/test_parallel_campaign.py`` proves this differentially
against the interpreted oracle).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..hdl.compiled import Program
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ZoneSet
from ..zones.model import ObservationPoint, SensibleZone
from .faults import Fault
from .manager import CampaignConfig, FaultInjectionManager
from .profiler import NetActivity, profile_workload


# ----------------------------------------------------------------------
# deterministic sharding
# ----------------------------------------------------------------------
def shard_candidates(faults: list[Fault],
                     shards: int) -> list[list[Fault]]:
    """Split ``faults`` into at most ``shards`` contiguous batches.

    The split is a partition — every fault lands in exactly one shard —
    and order-preserving: ``sum(shard_candidates(f, n), [])`` equals
    ``list(f)`` for every ``n``, which is what makes the parallel merge
    order independent of the worker count.  Shard sizes differ by at
    most one, the earlier shards taking the remainder.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    shards = min(shards, len(faults)) or 1
    base, extra = divmod(len(faults), shards)
    out: list[list[Fault]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        out.append(list(faults[lo:hi]))
        lo = hi
    return out


# ----------------------------------------------------------------------
# picklable campaign description
# ----------------------------------------------------------------------
def require_setup_data(setup) -> MemoryImageSetup | None:
    """``setup`` unchanged if it is ``None`` or a
    :class:`MemoryImageSetup`; any other value raises ``TypeError``.

    A campaign description holds its setup as data, so it pickles and
    has a content address; the built-in designs build theirs with
    ``preload_image()``.
    """
    if setup is None or isinstance(setup, MemoryImageSetup):
        return setup
    raise TypeError(
        f"a campaign setup must be a MemoryImageSetup (build one with "
        f"preload_image()), got {type(setup).__name__}")


@dataclass
class CampaignSpec:
    """Everything that defines one campaign, as plain data.

    The ``setup`` is a :class:`MemoryImageSetup` (or ``None``), so the
    spec is picklable and content-addressable.  ``activity`` is
    the fault-free replay's per-net first events
    (:attr:`OperationalProfile.activity
    <repro.faultinjection.profiler.OperationalProfile.activity>`); the
    golden trace is derived from it, or from one replay when absent.
    ``program`` is its environment's; without one the manager builds
    its own.
    """

    circuit: Circuit
    stimuli: list[dict[str, int]]
    zones: list[SensibleZone] = field(default_factory=list)
    observation_points: list[ObservationPoint] = field(
        default_factory=list)
    config: CampaignConfig = field(default_factory=CampaignConfig)
    setup: MemoryImageSetup | None = None
    activity: NetActivity | None = None
    program: Program | None = None

    def __post_init__(self):
        require_setup_data(self.setup)

    @classmethod
    def from_zone_set(cls, circuit: Circuit, stimuli, zone_set: ZoneSet,
                      setup=None, config: CampaignConfig | None = None,
                      **extra) -> "CampaignSpec":
        return cls(circuit=circuit, stimuli=list(stimuli),
                   zones=list(zone_set.zones),
                   observation_points=list(zone_set.observation_points),
                   config=config or CampaignConfig(), setup=setup,
                   **extra)

    def manager(self) -> FaultInjectionManager:
        return FaultInjectionManager(
            self.circuit, self.stimuli, zones=self.zones,
            observation_points=self.observation_points,
            setup=self.setup, config=self.config, program=self.program)


# ----------------------------------------------------------------------
# golden (fault-free) reference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free reference activity, derived once per campaign.

    ``obse_active`` are the functional points the workload itself
    toggles (they self-cover their OBSE items); ``diag_active`` are the
    diagnostics the workload exercises without any fault present.
    The supervisor merges these bits into the final coverage ledger
    exactly once.
    """

    cycles: int
    obse_active: tuple[str, ...]
    diag_active: tuple[str, ...]


def compute_golden_trace(manager: FaultInjectionManager,
                         activity: NetActivity | None = None
                         ) -> GoldenTrace:
    """The golden activity bits of ``manager``'s observation points.

    A pure derivation from the fault-free replay's per-net first
    events: a functional point is OBSE-active iff one of its nets
    changes value within the manager's workload, a diagnostic point is
    DIAG-active iff one of its nets is 1 within it.  Without
    ``activity`` the workload is replayed once to record it.
    """
    cycles = len(manager.stimuli)
    if activity is None:
        activity = profile_workload(manager.circuit, manager.stimuli,
                                    setup=manager.setup,
                                    program=manager.program).activity
    change, one = activity
    obse = {p.name for p in manager.functional
            if any(0 <= change[net] < cycles for net in p.nets)}
    diag = {p.name for p in manager.diagnostic
            if any(0 <= one[net] < cycles for net in p.nets)}
    return GoldenTrace(cycles=cycles, obse_active=tuple(sorted(obse)),
                       diag_active=tuple(sorted(diag)))


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class SafeProgress:
    """Shield a campaign from a misbehaving ``progress`` callback.

    The callback is user code; an exception inside it must not abort
    an hours-long campaign.  The first failure is reported once as a
    :class:`RuntimeWarning` and the callback is disabled for the rest
    of the run.
    """

    def __init__(self, callback):
        self.callback = callback
        self.disabled = False

    @classmethod
    def wrap(cls, callback):
        """``None`` stays ``None``; wrapping is idempotent."""
        if callback is None or isinstance(callback, cls):
            return callback
        return cls(callback)

    def __call__(self, done: int, total: int) -> None:
        if self.disabled:
            return
        try:
            self.callback(done, total)
        except Exception as exc:
            self.disabled = True
            warnings.warn(
                f"progress callback raised {exc!r}; disabling it for "
                f"the rest of the campaign", RuntimeWarning,
                stacklevel=2)


@dataclass
class ShardStats:
    """Timing and volume of one shard's execution."""

    shard: int
    worker: int          # OS pid of the executing worker
    faults: int
    passes: int
    cycles: int
    wall_seconds: float


@dataclass
class CampaignStats:
    """Per-worker observability for one sharded campaign run."""

    workers: int
    total_faults: int = 0
    wall_seconds: float = 0.0
    shards: list[ShardStats] = field(default_factory=list)
    #: set by :class:`~repro.faultinjection.supervisor.\
    #: CampaignSupervisor`: retry/quarantine/degradation counters
    health: "object | None" = None

    def by_worker(self) -> dict[int, list[ShardStats]]:
        groups: dict[int, list[ShardStats]] = {}
        for stats in self.shards:
            groups.setdefault(stats.worker, []).append(stats)
        return groups

    def summary(self) -> str:
        lines = [f"=== campaign: {self.total_faults} faults, "
                 f"{self.workers} worker(s), "
                 f"{len(self.shards)} shard(s), "
                 f"{self.wall_seconds:.2f}s wall ==="]
        for pid, shards in sorted(self.by_worker().items()):
            faults = sum(s.faults for s in shards)
            busy = sum(s.wall_seconds for s in shards)
            lines.append(f"worker {pid}: {faults} faults in "
                         f"{len(shards)} shard(s), {busy:.2f}s busy")
        if self.health is not None:
            lines.append(self.health.summary())
        return "\n".join(lines)


def _default_start_method() -> str:
    """``fork`` where available (cheap on Linux), else ``spawn``.

    Every payload crossing the process boundary is picklable either
    way; fork merely skips re-importing the package per worker.
    """
    import multiprocessing
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
