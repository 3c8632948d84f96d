"""Span recorder for the benchmark's traced runs.

The traced run wraps the public entry point of each pipeline layer
from the outside (nothing under ``src/`` knows it is being measured).
A wrapper records one span per call: name, layer, start, end, the
span that caused it and the benchmark operation it belongs to.
Spans stay in memory and are reduced to per-layer metrics after each
operation.

Three execution contexts are covered:

* the benchmark's own thread — spans nest on a per-thread stack;
* other threads of the process (the HTTP server's loop and request
  threads, the embedded daemon worker) — a span with no parent on its
  thread is parented to the running operation;
* forked supervisor workers — they inherit the wrappers and the
  caller's stack, and write the spans they recorded to a per-pid file
  in the spool directory before they exit; the parent merges those.

The untraced run never constructs a :class:`Tracer`, so it runs the
program's own functions.  All times are ``time.perf_counter`` values,
which on Linux read one system-wide monotonic clock, so spans from
forked workers share the parent's time base.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


# ----------------------------------------------------------------------
# counters attached to a span from the call's arguments and result
# ----------------------------------------------------------------------
def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _profile_counts(span, args, kwargs, result):
    span["cycles"] = len(_arg(args, kwargs, 1, "stimuli"))


def _faultlist_counts(span, args, kwargs, result):
    span["faults"] = len(result.faults)


def _fingerprint_counts(span, args, kwargs, result):
    span["faults"] = 1


def _plan_counts(span, args, kwargs, result):
    span["hits"] = len(result.cached)
    span["total"] = len(result.fingerprints)


def _put_outcomes_counts(span, args, kwargs, result):
    span["rows"] = result


def _kernel_counts(span, args, kwargs, result):
    span["faults"] = len(_arg(args, kwargs, 1, "faults"))
    span["passes"] = result.passes
    span["cycles"] = result.cycles_simulated


def _supervisor_counts(span, args, kwargs, result):
    stats = args[0].last_stats
    span["shards"] = len(stats.shards)
    span["retries"] = stats.health.retries if stats.health else 0


def _submit_counts(span, args, kwargs, result):
    span["job"] = result[0]


def _claim_counts(span, args, kwargs, result):
    if result is not None:
        span["job"] = result.job_id


def _complete_counts(span, args, kwargs, result):
    span["job"] = _arg(args, kwargs, 1, "job_id")


def _explore_counts(span, args, kwargs, result):
    span["points"] = len(result.evaluations)
    span["incremental_hit_rate"] = result.incremental_hit_rate


#: (layer, module, qualified attribute, counter hook) — the timed
#: public calls of each layer; ``store`` spans are split into reads
#: and writes by :data:`STORE_WRITES`
TARGETS = (
    ("soc", "repro.service.core", "make_subsystem", None),
    ("zones", "repro.zones.extractor", "extract_zones", None),
    ("fmea", "repro.soc.subsystem", "MemorySubsystem.worksheet", None),
    ("fmea", "repro.soc.banked", "BankedMemorySubsystem.worksheet",
     None),
    ("profiler", "repro.faultinjection.profiler", "profile_workload",
     _profile_counts),
    ("faultlist", "repro.faultinjection.faultlist",
     "generate_zone_faults", _faultlist_counts),
    ("fingerprint", "repro.store.fingerprint",
     "FingerprintContext.from_spec", None),
    ("fingerprint", "repro.store.fingerprint",
     "FingerprintContext.fault_fingerprint", _fingerprint_counts),
    ("store", "repro.store.cache", "CampaignCache.plan", _plan_counts),
    ("store", "repro.store.db", "StoreDB.get_outcomes", None),
    ("store", "repro.store.db", "StoreDB.put_outcomes",
     _put_outcomes_counts),
    ("store", "repro.store.db", "StoreDB.begin_run", None),
    ("store", "repro.store.db", "StoreDB.finish_run", None),
    ("store", "repro.store.blobs", "BlobStore.get", None),
    ("store", "repro.store.blobs", "BlobStore.put", None),
    ("golden", "repro.faultinjection.parallel", "compute_golden_trace",
     None),
    ("compile", "repro.hdl.compiled", "compile_circuit", None),
    ("kernel", "repro.faultinjection.manager",
     "FaultInjectionManager.run_batches", _kernel_counts),
    ("supervisor", "repro.faultinjection.supervisor",
     "CampaignSupervisor.run", _supervisor_counts),
    ("queue", "repro.service.queue", "JobQueue.submit_idempotent",
     _submit_counts),
    ("queue", "repro.service.queue", "JobQueue.claim", _claim_counts),
    ("queue", "repro.service.queue", "JobQueue.heartbeat", None),
    ("queue", "repro.service.queue", "JobQueue.complete",
     _complete_counts),
    ("api", "repro.api.client", "ApiClient.request", None),
    ("api", "repro.api.client", "ApiClient.stream", None),
    ("explore", "repro.explore.search", "explore", _explore_counts),
)

STORE_WRITES = frozenset({
    "StoreDB.put_outcomes", "StoreDB.begin_run", "StoreDB.finish_run",
    "BlobStore.put"})

#: the supervisor's worker entry point, wrapped to flush the spans a
#: forked worker recorded
WORKER_ENTRY = ("repro.faultinjection.supervisor", "_supervised_worker")


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self._op: dict | None = None
        self._local = threading.local()
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, push: bool) -> dict:
        stack = self._stack()
        op = self._op
        parent = stack[-1]["id"] if stack else (
            op["id"] if op is not None else None)
        span = {"id": f"{os.getpid()}.{next(self._seq)}", "name": name,
                "layer": layer, "parent": parent,
                "op": op["op"] if op is not None else None,
                "pid": os.getpid(), "start": time.perf_counter()}
        if push:
            stack.append(span)
        return span

    def _close(self, span: dict, push: bool) -> None:
        span["end"] = time.perf_counter()
        if push:
            self._stack().pop()
        if span["op"] is not None:      # idle polling between ops
            self.spans.append(span)

    def begin_op(self, op: int) -> None:
        self._op = self._open("op", "op", push=True)
        self._op["op"] = op

    def end_op(self) -> None:
        """Close the running op's root span and merge worker spools."""
        root, self._op = self._op, None
        root["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(root)
        for path in sorted(self.spool.glob("spans-*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()

    def take(self, op: int) -> list[dict]:
        """Remove and return the spans of one op."""
        mine = [s for s in self.spans if s["op"] == op]
        self.spans = [s for s in self.spans if s["op"] != op]
        return mine

    def flush_worker(self) -> None:
        """Write this forked worker's spans to its spool file."""
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        if mine:
            (self.spool / f"spans-{pid}.json").write_text(
                json.dumps(mine))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, func, name: str, layer: str, hook):
        tracer = self
        if inspect.isgeneratorfunction(func):
            # a generator's span covers its whole iteration; it is a
            # leaf, so it stays off the stack its consumer shares
            @functools.wraps(func)
            def traced_gen(*args, **kwargs):
                span = tracer._open(name, layer, push=False)
                try:
                    yield from func(*args, **kwargs)
                finally:
                    tracer._close(span, push=False)
            return traced_gen

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer, push=True)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span, push=True)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return traced

    def _worker_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def traced_worker(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                tracer.flush_worker()
        return traced_worker

    def install(self) -> None:
        """Replace every target with its traced wrapper.

        Module-level functions are also rebound in every loaded module
        that imported them by name (``from .parallel import
        compute_golden_trace``), so the call sites see the wrapper.
        """
        swaps: dict[int, object] = {}
        for layer, module, qualname, hook in TARGETS:
            owner, attr = _resolve(module, qualname)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, qualname,
                                                 layer, hook))
            else:
                wrapped = self._wrap(raw, qualname, layer, hook)
                swaps[id(raw)] = wrapped
            self._patch(owner, attr, raw, wrapped)
        owner, attr = _resolve(*WORKER_ENTRY)
        raw = owner.__dict__[attr]
        self._patch(owner, attr, raw, self._worker_wrapper(raw))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapped = swaps.get(id(value))
                if wrapped is not None:
                    self._patch(mod, attr, value, wrapped)

    def _patch(self, owner, attr, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every original the last :meth:`install` replaced."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


# ----------------------------------------------------------------------
# reduction: one op's spans → per-layer metrics
# ----------------------------------------------------------------------
def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _covered(lo: float, hi: float, union) -> float:
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in union)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"]) - _covered(
        span["start"], span["end"],
        _union(children.get(span["id"], ())))
        for span in spans}


def layer_metrics(spans: list[dict], terminal_seen: float | None = None,
                  shed: int = 0) -> dict[str, float]:
    """Reduce the spans of one operation to the per-layer metrics."""
    own = self_times(spans)
    root = next(s for s in spans if s["layer"] == "op")

    def of(layer, names=None):
        return [s for s in spans if s["layer"] == layer
                and (names is None or s["name"] in names)]

    def busy(layer_spans):
        return sum(own[s["id"]] for s in layer_spans)

    def total(layer_spans, key):
        return sum(s.get(key, 0) for s in layer_spans)

    stores = of("store")
    writes = [s for s in stores if s["name"] in STORE_WRITES]
    reads = [s for s in stores if s["name"] not in STORE_WRITES]
    plans = of("store", {"CampaignCache.plan"})
    kernel = of("kernel")
    kernel_union = _union((s["start"], s["end"]) for s in kernel)
    golden = of("golden")
    queue = of("queue")
    api = of("api")
    explore = of("explore")
    planned = total(plans, "total")
    kernel_busy = busy(kernel)

    submitted = {s["job"]: s["end"] for s in
                 of("queue", {"JobQueue.submit_idempotent"})}
    waits = [s["end"] - submitted[s["job"]]
             for s in of("queue", {"JobQueue.claim"})
             if s.get("job") in submitted]
    completed = [s["end"] for s in of("queue", {"JobQueue.complete"})]

    return {
        "soc.busy_s": busy(of("soc")),
        "zones.busy_s": busy(of("zones")),
        "fmea.busy_s": busy(of("fmea")),
        "profiler.busy_s": busy(of("profiler")),
        "profiler.cycles": total(of("profiler"), "cycles"),
        "faultlist.busy_s": busy(of("faultlist")),
        "faultlist.faults": total(of("faultlist"), "faults"),
        "fingerprint.busy_s": busy(of("fingerprint")),
        "fingerprint.faults": total(of("fingerprint"), "faults"),
        "store.read_s": busy(reads),
        "store.write_s": busy(writes),
        "store.rows_written": total(writes, "rows"),
        "store.hit_rate": total(plans, "hits") / planned
        if planned else 0.0,
        "golden.busy_s": busy(golden),
        "golden.blocking_s": sum(
            (s["end"] - s["start"])
            - _covered(s["start"], s["end"], kernel_union)
            for s in golden),
        "compile.busy_s": busy(of("compile")),
        "compile.calls": len(of("compile")),
        "kernel.busy_s": kernel_busy,
        "kernel.passes": total(kernel, "passes"),
        "kernel.cycles": total(kernel, "cycles"),
        "kernel.faults": total(kernel, "faults"),
        "kernel.faults_per_s": total(kernel, "faults") / kernel_busy
        if kernel_busy else 0.0,
        "supervisor.self_s": busy(of("supervisor")),
        "supervisor.shards": total(of("supervisor"), "shards"),
        "supervisor.retries": total(of("supervisor"), "retries"),
        "queue.busy_s": busy(queue),
        "queue.txns": len(queue),
        "queue.wait_s": sum(waits),
        "api.request_s": busy(api),
        "api.requests": len(api),
        "api.shed": shed,
        "api.notify_lag_s": terminal_seen - max(completed)
        if terminal_seen is not None and completed else 0.0,
        "explore.self_s": busy(explore),
        "explore.points": total(explore, "points"),
        "explore.incremental_hit_rate": total(
            explore, "incremental_hit_rate"),
        "other.self_s": own[root["id"]],
    }
