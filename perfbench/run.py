"""Campaign pipeline benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload cold-campaign --seed 7 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics of ``perfbench/layers.json`` (medians
over the traced ops) plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are host times scaled to a reference host speed: a probe child
process (``probe.py``) times a fixed CPU kernel after every set-up and
every op, and each time metric is multiplied by ``REFERENCE_PROBE_S``
over the run's median probe time (rates are divided by it).  On the
shared machines this runs on the same code can run 1.5-2x slower for
minutes; the scaling keeps that drift out of the comparison between
runs.  The raw host figures are printed beside the scaled ones.

Exit codes: 0 after a measured run (check ``correct``); 2 on a bad
seed or when ``src/repro`` is not under the current directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: the probe kernel's time on the reference host (a quiet 2-vCPU Xeon
#: VM); a run whose median probe takes twice this halves its times
REFERENCE_PROBE_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "faults_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    """Per-layer metric name → unit, from the layer map."""
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    return {m["name"]: m["unit"] for layer in layers
            for m in layer["metrics"]}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped
    child (forked campaign workers), in MiB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class HostProbe:
    """The ``probe.py`` child process and the times it reported."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(float(self._proc.stdout.readline()))

    def speed(self) -> float:
        """Host speed relative to the reference host (below 1 is
        slower)."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def scaled(value: float, unit: str, speed: float) -> float:
    """``value`` at the reference host speed."""
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, import_s: float = 0.0,
            tamper: bool = False) -> dict:
    """Set up, run the closed loop for ``seconds`` and reduce.

    Returns ``{"result": <the JSON line>, "counts": {metric: n},
    "raw": {metric: unscaled value}, "speed": float, "probes": int,
    "error_rate": float}``.  ``tamper`` corrupts the reference after set-up, so
    every op must count as failed (the benchmark's own test of its
    oracle).
    """
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, OpResult, Stopwatch

    probe = HostProbe()
    try:
        factory = WORKLOADS[workload]
        setups: list[float] = []
        state = None
        consistent = True
        for i in range(SETUP_REPEATS):
            where = work / f"setup-{i}"
            where.mkdir(parents=True)
            start = time.perf_counter()
            fresh = factory(where, seed)
            setups.append(time.perf_counter() - start)
            if state is not None:
                consistent &= state.reference == fresh.reference
                state.close()
            state = fresh
            probe.sample()
        if tamper:
            key = next(k for k in state.reference
                       if k.endswith("measured_dc"))
            state.reference[key] = "tampered"

        tracer = Tracer(work / "spool") if trace else None
        ops, layer_rows = [], []
        deadline = time.perf_counter() + seconds
        try:
            while True:
                index = len(ops)
                traced = tracer is not None and index % 2 == 1
                gc.collect()    # no op pays for its predecessor's garbage
                if traced:
                    tracer.install()
                watch = Stopwatch(tracer if traced else None, op=index)
                store = work / f"op-{index}"
                try:
                    result = state.op(watch, store)
                except Exception:  # noqa: BLE001 — count it, keep going
                    traceback.print_exc()
                    result = OpResult(seconds=watch.seconds,
                                      problems=["op raised"])
                finally:
                    if traced:
                        tracer.uninstall()
                    shutil.rmtree(store, ignore_errors=True)
                probe.sample()
                ops.append((traced, result))
                if traced:
                    spans = tracer.take(index)
                    if not result.problems:
                        layer_rows.append(layer_metrics(
                            spans, terminal_seen=result.terminal_seen,
                            shed=result.shed))
                for problem in result.problems:
                    print(f"op {index}: {problem}", file=sys.stderr)
                if time.perf_counter() >= deadline and (
                        tracer is None or len(ops) >= 2):
                    break
        finally:
            state.close()
    finally:
        probe.close()

    attempted = len(ops)
    failed = sum(1 for _, r in ops if r.problems)
    if not trace:
        results = [r for _, r in ops]
        raw = {
            "setup_s": import_s + statistics.median(setups),
            "op_s.p50": statistics.median(r.seconds for r in results),
            "faults_per_s": sum(r.faults for r in results)
            / sum(r.seconds for r in results),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        counts = {"setup_s": len(setups)}
        counts.update({name: attempted for name in END_TO_END
                       if name != "setup_s"})
    else:
        units = layer_units()
        raw = {name: statistics.median(
            [row[name] for row in layer_rows] or [0.0])
            for name in units if name != "trace.overhead_pct"}
        plain = statistics.median(r.seconds for t, r in ops if not t)
        traced_p50 = statistics.median(r.seconds for t, r in ops if t)
        raw["trace.overhead_pct"] = (traced_p50 / plain - 1) * 100
        counts = {name: len(layer_rows) for name in units}
        counts["trace.overhead_pct"] = attempted
    speed = probe.speed()
    return {
        "result": {
            "correct": failed == 0 and consistent,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": scaled(raw[name], unit, speed),
                               "unit": unit}
                        for name, unit in units.items()},
        },
        "counts": counts,
        "raw": raw,
        "speed": speed,
        "probes": len(probe.samples),
        "error_rate": failed / attempted,
    }


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "start_method": multiprocessing.get_start_method()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-campaign", "warm-jobs",
                                 "explore-incremental"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {Path.cwd()}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start

    work = Path.cwd() / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), work, import_s=import_s)
    except workloads.SeedError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # unless another run still uses it
        except OSError:
            pass

    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload: {args.workload}, seed {args.seed}, closed loop, "
          f"1 client, workers=1")
    print(f"host speed: {out['speed']:.4f} of the reference "
          f"(n={out['probes']} probes); times below are scaled to it")
    result = out["result"]
    for name, metric in result["metrics"].items():
        line = (f"{name}: {metric['value']:.6g} {metric['unit']} "
                f"(n={out['counts'][name]}")
        if metric["value"] != out["raw"][name]:
            line += f"; raw host {out['raw'][name]:.6g}"
        print(line + ")")
    print(f"error_rate: {out['error_rate']:.6g} ratio "
          f"(n={result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
