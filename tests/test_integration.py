"""Paper-size integration tests: the full flow at 32-bit/256-word scale.

These are the E2/E3 headline numbers as regression tests, plus proof
that the injection machinery works at the paper's design size (the
benchmarks do the timing; here we only trim the campaign for test
runtime).
"""

import pytest

from repro.faultinjection import (
    CampaignSupervisor,
    FaultListConfig,
    ResultAnalyzer,
    build_environment,
    randomize,
)
from repro.fmea import rank_zones, stability_report
from repro.hdl import roundtrip
from repro.iec61508 import SIL, max_sil
from repro.soc import MemorySubsystem, SubsystemConfig


@pytest.fixture(scope="module")
def baseline():
    return MemorySubsystem(SubsystemConfig.baseline())


@pytest.fixture(scope="module")
def improved():
    return MemorySubsystem(SubsystemConfig.improved())


def test_paper_zone_count(improved):
    zone_set = improved.extract_zones()
    assert 120 <= len(zone_set) <= 220


def test_paper_baseline_sff(baseline):
    sff = baseline.worksheet().totals().sff
    assert 0.92 <= sff < 0.99            # "around 95%", below SIL3
    assert max_sil(sff, hft=0) is SIL.SIL2


def test_paper_improved_sff(improved):
    sff = improved.worksheet().totals().sff
    assert sff >= 0.99                    # SIL3
    assert abs(sff - 0.9938) < 0.005      # close to the paper value
    assert max_sil(sff, hft=0) is SIL.SIL3


def test_paper_improved_stability(improved):
    report = stability_report(improved.worksheet())
    assert report.min_sff >= 0.99


def test_paper_ranking_names_the_culprits(baseline):
    top = " ".join(r.zone for r in rank_zones(baseline.worksheet(),
                                              top=25))
    assert "fmem/wbuf" in top
    assert "fmem/decoder" in top
    assert "memctrl/latch" in top


def test_paper_size_campaign_runs(improved):
    """An injection campaign at full design size over the first 600
    cycles of the workload."""
    env = build_environment(improved, quick=True)
    assert len(env.stimuli) > 600
    env.stimuli = env.stimuli[:600]
    candidates = randomize(
        env.candidates(FaultListConfig(transient_per_zone=1,
                                       permanent_per_zone=1)),
        sample=24, seed=3)
    campaign = CampaignSupervisor(env.spec(), workers=1).run(candidates)
    assert len(campaign.results) == 24
    counts = campaign.outcomes()
    assert sum(counts.values()) == 24
    analyzer = ResultAnalyzer(campaign)
    assert analyzer.zone_measurements()


def test_paper_size_verilog_roundtrip(improved):
    back = roundtrip(improved.circuit)
    assert back.gate_count() == improved.circuit.gate_count()
    assert back.flop_count() == improved.circuit.flop_count()
    assert len(back.memories) == 1


def test_paper_size_csv_export(improved, tmp_path):
    sheet = improved.worksheet()
    path = tmp_path / "improved.csv"
    sheet.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(sheet) + 1


def test_variants_share_interface(baseline, improved):
    """Baseline ports are a subset of improved ports (drop-in)."""
    assert set(baseline.circuit.inputs) == set(improved.circuit.inputs)
    assert set(baseline.circuit.outputs) <= \
        set(improved.circuit.outputs)
