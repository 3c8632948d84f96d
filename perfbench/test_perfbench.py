"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench``.
Smoke runs use one set-up and the shortest closed loop (``seconds=0``
still runs one op, two when traced).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.service.core import make_subsystem  # noqa: E402
from repro.soc.workloads import validation_workload  # noqa: E402

WORKLOAD_NAMES = list(workloads.WORKLOADS)


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def originals_in_place() -> bool:
    """True when no tracer target is wrapped (``functools.wraps``
    leaves ``__wrapped__`` on every wrapper)."""
    for _, module, qualname, _ in tracer.TARGETS + (
            (None, *tracer.WORKER_ENTRY, None),):
        owner, attr = tracer._resolve(module, qualname)
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(func, "__wrapped__"):
            return False
    return True


def test_seed_7_is_the_validation_workload():
    sub = make_subsystem(workloads.VARIANT, banks=workloads.BANKS)
    mine = workloads.compose_stimuli(sub, 7)
    assert mine.stimuli == validation_workload(sub, quick=False).stimuli
    other = workloads.compose_stimuli(sub, 8)
    assert other.test_windows() == mine.test_windows()
    assert other.stimuli != mine.stimuli


def test_length_changing_seed_is_refused(monkeypatch, capsys):
    real = workloads._traffic

    def shorter_unless_7(sub, seed):
        segment = real(sub, seed)
        if seed != workloads.REFERENCE_SEED:
            segment.stimuli = segment.stimuli[:-1]
        return segment

    monkeypatch.setattr(workloads, "_traffic", shorter_unless_7)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "cold-campaign", "--seed", "3",
                     "--seconds", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "test windows would no longer line up" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_untraced_then_traced(name, one_setup, tmp_path,
                                    monkeypatch):
    installs = []
    real_install = tracer.Tracer.install

    def counting_install(self):
        installs.append(self)
        real_install(self)

    monkeypatch.setattr(tracer.Tracer, "install", counting_install)

    plain = run.measure(name, 5, 0, False, tmp_path / "plain")
    assert installs == []
    assert originals_in_place()
    result = plain["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["unit"] and metric["value"] > 0

    traced = run.measure(name, 5, 0, True, tmp_path / "traced")
    assert len(installs) == 1 and originals_in_place()
    layers = traced["result"]["metrics"]
    assert traced["result"]["correct"]
    assert set(layers) == set(run.layer_units())
    assert all(m["unit"] for m in layers.values())
    value = {k: m["value"] for k, m in layers.items()}
    if name == "warm-jobs":
        assert value["kernel.faults"] == 0
        assert value["store.hit_rate"] == 1.0
        assert value["api.requests"] >= 2
        assert value["queue.wait_s"] > 0
    else:
        assert value["kernel.faults"] == value["store.rows_written"] > 0
        assert value["golden.busy_s"] > 0
    if name == "explore-incremental":
        assert value["explore.points"] == 3
        assert 0.5 <= value["explore.incremental_hit_rate"] < 1
    if name == "cold-campaign":
        assert value["kernel.faults"] == value["faultlist.faults"]
        assert value["store.hit_rate"] == 0.0


def test_tampered_reference_counts_every_op_failed(one_setup,
                                                   tmp_path):
    out = run.measure("cold-campaign", 5, 0, False, tmp_path,
                      tamper=True)
    result = out["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert out["error_rate"] > 0 and not result["correct"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "r", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "r", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "r", "start": 2.0, "end": 5.0},
        {"id": "c", "parent": "b", "start": 4.0, "end": 12.0},
    ]
    own = tracer.self_times(spans)
    assert own == {"r": 6.0, "a": 2.0, "b": 2.0, "c": 8.0}


def test_scaling_moves_times_and_rates_only():
    assert run.scaled(2.0, "s", 0.5) == 1.0
    assert run.scaled(100.0, "1/s", 0.5) == 200.0
    assert run.scaled(7.0, "count", 0.5) == 7.0


def test_benchmark_json_matches_the_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_command_line_prints_metrics_then_one_json_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "cold-campaign", "--seed", "7", "--seconds", "0",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(f"{name}: ") and f" {unit} (n="
                   in line for line in lines)
    assert any(line.startswith("error_rate: 0 ratio") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "cold-campaign", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
