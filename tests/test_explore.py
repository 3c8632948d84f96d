"""Tests for :mod:`repro.explore` — transforms, Pareto search,
dossier — and the store-level guarantees the search leans on:

* a mitigation applied to one bank is *local*: the run diff names
  only that bank's zones, and the warm-hit count equals the number
  of provably untouched fault cones;
* every frontier variant's incremental metrics are bit-identical to
  a cold, cache-free campaign over the same design point.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.explore import (
    TRANSFORM_LIBRARY,
    DesignPoint,
    ExploreConfig,
    ParetoFront,
    elaborate,
    explore,
    render_explore_dossier,
    structural_cost,
    touched_zones,
    transforms_for_zone,
)
from repro.explore.search import EvaluatedPoint, candidate_steps
from repro.explore.transforms import StructuralCost
from repro.faultinjection import build_environment
from repro.service.core import CampaignService
from repro.soc.banked import bank_of_zone
from repro.soc.config import IMPROVEMENT_FLAGS


# ----------------------------------------------------------------------
# transform library
# ----------------------------------------------------------------------
def test_library_keys_are_config_flags():
    assert set(TRANSFORM_LIBRARY) == set(IMPROVEMENT_FLAGS)


def test_transforms_for_zone_matches_patterns():
    keys = {t.key for t in transforms_for_zone("fmem/wbuf/data[0:3]")}
    assert "write_buffer_parity" in keys
    assert "coder_checker" not in keys


def test_transforms_for_zone_strips_bank_and_block_prefixes():
    plain = {t.key for t in transforms_for_zone("fmem/coder/out")}
    assert plain == {t.key for t in
                     transforms_for_zone("bank1/fmem/coder/out")}
    assert plain == {t.key for t in
                     transforms_for_zone("block:bank0/fmem/coder/out")}
    assert "coder_checker" in plain


def test_plan_only_flag_marks_software_mechanisms():
    assert TRANSFORM_LIBRARY["sw_startup_tests"].plan_only
    assert not TRANSFORM_LIBRARY["write_buffer_parity"].plan_only


# ----------------------------------------------------------------------
# design points
# ----------------------------------------------------------------------
def test_design_point_identity_is_the_set_of_applications():
    a = DesignPoint(banks=2, applied=(
        (1, "coder_checker"), (0, "write_buffer_parity")))
    b = DesignPoint(banks=2, applied=(
        (0, "write_buffer_parity"), (1, "coder_checker"),
        (1, "coder_checker")))
    assert a == b
    assert a.name == "baseline+b0:write_buffer_parity+b1:coder_checker"


def test_design_point_with_transform_and_bank_flags():
    point = DesignPoint(variant="small-baseline", banks=2) \
        .with_transform(1, "scrub_parity")
    assert point.applied == ((1, "scrub_parity"),)
    assert point.bank_flags() == [{}, {"scrub_parity": True}]
    assert point.transforms_on(1) == [TRANSFORM_LIBRARY["scrub_parity"]]
    assert point.transforms_on(0) == []


def test_design_point_rejects_bad_applications():
    with pytest.raises(ValueError):
        DesignPoint(banks=2, applied=((0, "not_a_transform"),))
    with pytest.raises(ValueError):
        DesignPoint(banks=2, applied=((2, "coder_checker"),))


def test_design_point_dict_round_trip():
    point = DesignPoint(variant="small-baseline", banks=2,
                        applied=((0, "address_in_ecc"),))
    assert DesignPoint.from_dict(point.to_dict()) == point


def test_structural_cost_of_circuit_vs_plan_only_transform():
    point = DesignPoint(variant="small-baseline", banks=2)
    base = elaborate(point).tally
    parity = elaborate(point.with_transform(
        0, "write_buffer_parity")).tally
    software = elaborate(point.with_transform(
        0, "sw_startup_tests")).tally
    assert structural_cost(parity, base).scalar > 0
    assert structural_cost(software, base).scalar == 0
    assert structural_cost(base, base).scalar == 0


# ----------------------------------------------------------------------
# Pareto front
# ----------------------------------------------------------------------
def _ev(cost: int, sff: float) -> EvaluatedPoint:
    return EvaluatedPoint(
        point=DesignPoint(), claimed_sff=sff, claimed_dc=sff,
        cost=StructuralCost(gates=cost, flops=0, gate_delta=cost))


def test_pareto_front_prunes_dominated_points():
    front = ParetoFront()
    assert front.add(_ev(100, 0.95))
    assert front.add(_ev(50, 0.90))          # cheaper, lower SFF: kept
    assert not front.add(_ev(120, 0.94))     # dominated by (100, .95)
    assert front.add(_ev(40, 0.96))          # dominates both
    assert [p.cost.scalar for p in front.points()] == [40]


def test_pareto_front_rejects_exact_ties():
    front = ParetoFront()
    assert front.add(_ev(100, 0.95))
    assert not front.add(_ev(100, 0.95))
    assert len(front) == 1


def test_pareto_front_cheapest_meeting_walks_cost_ascending():
    front = ParetoFront()
    front.add(_ev(10, 0.90))
    front.add(_ev(60, 0.97))
    front.add(_ev(200, 0.995))
    assert front.cheapest_meeting(0.95).cost.scalar == 60
    assert front.cheapest_meeting(0.99).cost.scalar == 200
    assert front.cheapest_meeting(0.999) is None


# ----------------------------------------------------------------------
# candidate seeding
# ----------------------------------------------------------------------
def test_bank_of_zone():
    assert bank_of_zone("bank0/fmem/wbuf/data[0:3]") == 0
    assert bank_of_zone("block:bank1/fmem/coder") == 1
    assert bank_of_zone("po:bank1_rdata") == 1
    assert bank_of_zone("critical:hwdata[0]") is None


def test_candidate_steps_cover_the_library(small_banked_worksheet):
    steps = candidate_steps(small_banked_worksheet, banks=2)
    assert len(steps) == len(set(steps))
    assert set(steps) == {(b, key) for b in (0, 1)
                          for key in TRANSFORM_LIBRARY}
    # the head must be criticality-seeded: a real zone proposed it
    bank, key = steps[0]
    assert key in TRANSFORM_LIBRARY


@pytest.fixture(scope="module")
def small_banked_worksheet():
    return DesignPoint(variant="small-baseline",
                       banks=2).build().worksheet()


# ----------------------------------------------------------------------
# locality: run diff and warm hits of a one-bank mitigation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bank1_mitigation(tmp_path_factory):
    """Base campaign, then the same design with write-buffer parity
    on bank 1 only, sharing one store."""
    service = CampaignService(
        str(tmp_path_factory.mktemp("explore_store")))
    base = DesignPoint(variant="small-baseline", banks=2)
    variant = base.with_transform(1, "write_buffer_parity")
    out_a = service.run_campaign(base.request())
    out_b = service.run_campaign(variant.request())
    assert out_a.exit_code == 0 and out_b.exit_code == 0
    return service, base, variant, out_a, out_b


def test_one_bank_mitigation_touches_only_that_bank(bank1_mitigation):
    _, base, variant, _, _ = bank1_mitigation
    env_a = build_environment(base.build(), quick=True)
    env_b = build_environment(variant.build(), quick=True)
    touched, untouched, shared = touched_zones(env_a, env_b)
    assert touched and untouched and shared
    # every invalidated cone lives in the mitigated bank
    assert all(bank_of_zone(z) == 1 for z in touched)
    # the other bank is provably warm
    assert any(bank_of_zone(z) == 0 for z in untouched)


def test_warm_hits_equal_untouched_cone_count(bank1_mitigation):
    from repro.store import FingerprintContext
    _, base, variant, _, out_b = bank1_mitigation
    env_a = build_environment(base.build(), quick=True)
    env_b = build_environment(variant.build(), quick=True)
    ctx_a = FingerprintContext.from_spec(env_a.spec())
    ctx_b = FingerprintContext.from_spec(env_b.spec())
    stored = {ctx_a.fault_fingerprint(f)
              for f in env_a.candidates().faults}
    unchanged = sum(
        1 for f in env_b.candidates().faults
        if ctx_b.fault_fingerprint(f) in stored)
    summary = out_b.summary_dict()
    assert summary["hits"] == unchanged
    assert summary["hits"] > 0
    assert summary["misses"] == \
        len(env_b.candidates().faults) - unchanged


def test_run_diff_names_only_mitigated_bank_zones(bank1_mitigation):
    from repro.reporting.rundiff import render_run_diff
    from repro.store import CampaignCache, diff_runs
    service, base, variant, out_a, out_b = bank1_mitigation
    with CampaignCache(service.root) as cache:
        diff = diff_runs(cache,
                         out_a.summary_dict()["run_id"],
                         out_b.summary_dict()["run_id"])
        text = render_run_diff(diff)
    env_a = build_environment(base.build(), quick=True)
    env_b = build_environment(variant.build(), quick=True)
    touched, _, _ = touched_zones(env_a, env_b)
    affected = set(diff.affected_zones())
    # outcome movement can only come from invalidated cones
    assert affected <= touched
    assert all(bank_of_zone(z) == 1 for z in affected)
    for zone in affected:
        assert zone in text
    # the parity registers themselves are new cones in the diff
    assert any("bank1/fmem/wbuf" in z for z in affected) or affected


# ----------------------------------------------------------------------
# the search, end to end (each evaluation one in-process campaign on
# the design the walk elaborated)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_search(tmp_path_factory):
    service = CampaignService(
        str(tmp_path_factory.mktemp("search_store")))
    config = ExploreConfig(variant="small-baseline", banks=2,
                           target_sff=0.92, budget=4, probe_width=2)
    return service, explore(service, config)


def test_search_walks_toward_the_target(small_search):
    _, result = small_search
    assert result.evaluations[0].point.applied == ()
    assert len(result.evaluations) <= 4
    assert result.recommended is not None
    best = max(e.claimed_sff for e in result.evaluations)
    assert best > result.base.claimed_sff


def test_search_later_steps_are_served_warm(small_search):
    _, result = small_search
    assert result.base.hits == 0            # the seed is cold
    for ev in result.evaluations[1:]:
        assert ev.hits > 0                  # every step reuses cones
    assert result.incremental_hit_rate > result.hit_rate
    assert result.total_simulated < result.cold_faults


def test_search_verification_is_fully_warm_and_identical(small_search):
    _, result = small_search
    ver = result.verification
    assert ver is not None
    assert ver.misses == 0
    assert ver.simulated == 0
    assert ver.measured_dc == result.recommended.measured_dc
    assert ver.safe_fraction == result.recommended.safe_fraction


def test_frontier_variants_match_cold_cache_free_runs(
        small_search, tmp_path):
    """The incremental walk must not buy speed with accuracy: every
    frontier point's measured DC / safe fraction is bit-identical to
    a cold campaign that never consults the store."""
    _, result = small_search
    cold_service = CampaignService(str(tmp_path / "cold_store"))
    for ev in result.front.points():
        cold = cold_service.run_campaign(
            ev.point.request(use_cache=False))
        summary = cold.summary_dict()
        assert summary["measured_dc"] == ev.measured_dc
        assert summary["safe_fraction"] == ev.safe_fraction
        assert summary["hits"] == 0         # provably cold


def test_dossier_renders_all_sections(small_search):
    _, result = small_search
    text = render_explore_dossier(result)
    assert "EXPLORATION DOSSIER" in text
    assert "evaluation trace" in text
    assert "Pareto front" in text
    assert "recommendation" in text
    assert "incremental-campaign economics" in text
    assert result.recommended.point.name[:40] in text


_DELTAS_SCRIPT = """
from repro.explore import DesignPoint, elaborate
from repro.explore.dossier import zone_sff_deltas
base = DesignPoint(variant="small-baseline", banks=2)
point = base
for bank in (0, 1):
    for key in ("address_in_ecc", "write_buffer_parity",
                "coder_checker"):
        point = point.with_transform(bank, key)
print(zone_sff_deltas(elaborate(base).lambda_du,
                      elaborate(point).lambda_du))
"""


def test_zone_sff_deltas_do_not_follow_the_hash_seed():
    """Bank twins with equal deltas, and the ``top`` cut among them,
    render byte-identically under any ``PYTHONHASHSEED``."""
    src = Path(__file__).parent.parent / "src"
    outputs = [subprocess.run(
        [sys.executable, "-c", _DELTAS_SCRIPT], capture_output=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert "bank0/" in outputs[0].decode() and \
        "bank1/" in outputs[0].decode()


def test_exploration_elaborates_each_point_once(tmp_path, monkeypatch):
    """A budget-3 walk elaborates the base and each of its 6 probes
    once, runs every campaign on the design the walk already built,
    and rebuilds only for the verification re-run: 8 subsystems, 8
    zone sets and 8 worksheets.  The dossier reads the walk's records
    instead of building anything."""
    import repro.service.core as core
    from repro.soc.banked import BankedMemorySubsystem
    from repro.soc.subsystem import MemorySubsystem
    counts = {"builds": 0, "zones": 0, "worksheets": 0}

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(core, "make_subsystem",
                        counted("builds", core.make_subsystem))
    for cls in (MemorySubsystem, BankedMemorySubsystem):
        monkeypatch.setattr(cls, "extract_zones",
                            counted("zones", cls.extract_zones))
        monkeypatch.setattr(cls, "worksheet",
                            counted("worksheets", cls.worksheet))
    config = ExploreConfig(variant="small-baseline", banks=2,
                           target_sff=0.97, budget=3)
    result = explore(CampaignService(str(tmp_path / "store")), config)
    assert len(result.evaluations) == 3
    assert result.verification is not None
    assert counts == {"builds": 8, "zones": 8, "worksheets": 8}
    counts.update(builds=0, zones=0, worksheets=0)
    assert "per-zone evidence" in render_explore_dossier(result)
    assert counts == {"builds": 0, "zones": 0, "worksheets": 0}


_ONE_POINT = dict(variant="small-baseline", banks=2, budget=1)


def test_exploration_leaves_other_jobs_queued(tmp_path):
    """The walk runs its own campaigns and nobody else's: a job queued
    in the same store root stays queued, and the walk adds none."""
    from repro.service.core import CampaignRequest
    root = str(tmp_path / "store")
    job_id = CampaignService(root, project="other").submit(
        CampaignRequest(variant="small-improved", sample=4))
    service = CampaignService(root)
    result = explore(service, ExploreConfig(**_ONE_POINT))
    assert result.base.run_id is not None
    assert service.status(job_id).status == "queued"
    assert [job.job_id for job in service.list_jobs()] == [job_id]


def test_exploration_writes_into_its_project_store(tmp_path):
    """A walk of project ``p`` records its runs under
    ``<root>/projects/p`` and none in the root store."""
    root = tmp_path / "store"
    result = explore(CampaignService(str(root), project="p"),
                     ExploreConfig(**_ONE_POINT))
    with CampaignService(str(root), project="p").open_cache() as cache:
        run_ids = {run["run_id"] for run in cache.db.runs()}
    assert run_ids == {result.base.run_id,
                       result.verification.run_id}
    assert cache.root == root / "projects" / "p"
    with CampaignService(str(root)).open_cache() as cache:
        assert cache.db.runs() == []


def test_failed_evaluation_raises_at_once(tmp_path, monkeypatch):
    """A campaign that exits 1 stops the walk with the point's name
    and the campaign's diagnostic, without a retry."""
    from repro.service.core import CampaignOutcome
    calls = []

    def failing(self, request, **kwargs):
        calls.append(request)
        return CampaignOutcome(
            exit_code=1, err="error: campaign aborted: shard 0 died")
    monkeypatch.setattr(CampaignService, "run_campaign", failing)
    with pytest.raises(RuntimeError) as info:
        explore(CampaignService(str(tmp_path / "store")),
                ExploreConfig(**_ONE_POINT))
    assert "'small-baseline'" in str(info.value)
    assert "error: campaign aborted: shard 0 died" in str(info.value)
    assert len(calls) == 1
