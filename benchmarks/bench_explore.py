"""Incremental vs cold design-space exploration.

The Pareto search re-runs a campaign per candidate design point; the
content-addressed store makes each step incremental — only the fault
cones the mitigation touched are re-simulated, every other cone is a
warm hit.  This suite runs a bounded search once through a shared
store and then replays the *same* evaluated variant set cold (fresh
store, cache disabled) and checks the economics: the incremental walk
must simulate strictly fewer faults, the incremental phase must stay
at or above a 50% warm-hit rate, and the metrics of both paths must
be bit-identical per variant.

Writes ``BENCH_explore.json`` (into ``$BENCH_JSON_DIR``, default the
current directory) so CI archives the evidence.
"""

import json
import os
import time
from pathlib import Path

import pytest

from conftest import report

from repro.explore import ExploreConfig, explore
from repro.service.core import CampaignService

_RECORDS: dict[str, dict] = {}


@pytest.fixture(autouse=True)
def _collect_record(request):
    """Mirror each benchmark's stats + extra_info into the JSON log."""
    yield
    bench = request.node.funcargs.get("benchmark")
    if bench is None or getattr(bench, "stats", None) is None:
        return
    entry = {"extra_info": dict(bench.extra_info)}
    entry["timing"] = {
        key: value for key, value in bench.stats.stats.as_dict().items()
        if key in ("min", "max", "mean", "stddev", "median", "rounds",
                   "ops")}
    _RECORDS[request.node.name] = entry


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write ``BENCH_explore.json`` once the module is done."""
    yield
    if not _RECORDS:
        return
    out = Path(os.environ.get("BENCH_JSON_DIR", ".")) \
        / "BENCH_explore.json"
    out.write_text(json.dumps(
        {"suite": "bench_explore", "records": _RECORDS},
        indent=2, sort_keys=True))


def test_incremental_vs_cold_exploration(benchmark, tmp_path_factory):
    """One bounded search, then the same variants from scratch."""
    def search():
        service = CampaignService(
            str(tmp_path_factory.mktemp("explore") / "store"))
        config = ExploreConfig(variant="small-baseline", banks=2,
                               target_sff=0.97, budget=6)
        return explore(service, config)

    result = benchmark.pedantic(search, rounds=1, iterations=1)
    incremental_s = benchmark.stats.stats.as_dict()["min"]

    # replay every evaluated variant cold: fresh store, cache off
    cold_service = CampaignService(
        str(tmp_path_factory.mktemp("cold") / "store"))
    cold_simulated = 0
    cold_start = time.perf_counter()
    per_variant = []
    for ev in result.evaluations:
        outcome = cold_service.run_campaign(
            ev.point.request(use_cache=False))
        summary = outcome.summary_dict()
        assert summary["hits"] == 0
        # incremental must not buy speed with accuracy
        assert summary["measured_dc"] == ev.measured_dc
        assert summary["safe_fraction"] == ev.safe_fraction
        # no cache: every fault is simulated
        cold_simulated += summary["faults"]
        per_variant.append({
            "point": ev.point.name,
            "faults": ev.faults,
            "incremental_simulated": ev.simulated,
            "cold_simulated": summary["faults"],
            "warm_hits": ev.hits,
        })
    cold_s = time.perf_counter() - cold_start

    saved = 1 - result.total_simulated / max(cold_simulated, 1)
    report(benchmark,
           variants=len(result.evaluations),
           incremental_simulated=result.total_simulated,
           cold_simulated=cold_simulated,
           simulations_saved=f"{saved * 100:.1f}%",
           hit_rate=f"{result.hit_rate * 100:.2f}%",
           incremental_hit_rate=
           f"{result.incremental_hit_rate * 100:.2f}%",
           incremental_s=f"{incremental_s:.2f}",
           cold_s=f"{cold_s:.2f}",
           per_variant=per_variant,
           recommended=result.recommended.point.name,
           recommended_sff=f"{result.recommended.claimed_sff:.4f}")

    # the headline economics CI gates on
    assert result.total_simulated < cold_simulated
    assert result.incremental_hit_rate >= 0.5
    # the verification re-run is entirely warm
    assert result.verification is not None
    assert result.verification.simulated == 0


def test_warm_restart_of_a_finished_search(benchmark,
                                           tmp_path_factory):
    """Re-running a search over its own store simulates ~nothing.

    Resume-after-interrupt is the same mechanism: every campaign the
    first walk recorded is served by content address, so the restart
    pays only elaboration and bookkeeping.
    """
    root = str(tmp_path_factory.mktemp("restart") / "store")
    config = ExploreConfig(variant="small-baseline", banks=2,
                           target_sff=0.97, budget=4)
    first = explore(CampaignService(root), config)

    def restart():
        return explore(CampaignService(root), config)

    second = benchmark.pedantic(restart, rounds=1, iterations=1)
    assert second.total_simulated == 0
    assert second.recommended.point == first.recommended.point
    assert second.recommended.measured_dc == \
        first.recommended.measured_dc
    report(benchmark,
           first_simulated=first.total_simulated,
           restart_simulated=second.total_simulated,
           restart_hit_rate=f"{second.hit_rate * 100:.1f}%")
