"""F1-F3 — §3 Figures 1-3: sensible zones, multiple failures,
main/secondary effects.

Checks the structural effect prediction (the main effect is the nearest
observation point, secondary effects follow through the output cone)
and its agreement with what injection actually measures.
"""

from conftest import report

import pytest

from repro.faultinjection import (
    CampaignSupervisor,
    ResultAnalyzer,
    build_environment,
)
from repro.zones import ZoneKind, predict_effects_table


@pytest.fixture(scope="module")
def env(improved_small):
    return build_environment(improved_small, quick=True)


def test_effect_prediction(benchmark, env):
    table = benchmark(lambda: predict_effects_table(env.zone_set))
    report(benchmark, zones_with_effects=sum(
        1 for p in table.values() if p.effects))

    # figure 1: a zone has a main effect (order 0, minimal distance)
    reg_zones = [z.name for z in env.zone_set.zones
                 if z.kind is ZoneKind.REGISTER]
    with_effects = [table[z] for z in reg_zones if table[z].effects]
    assert with_effects
    for pred in with_effects:
        assert pred.main is pred.effects[0]
        dists = [e.distance for e in pred.effects]
        assert dists == sorted(dists)

    # figure 3: secondary effects exist (one failure, several
    # observation points)
    assert any(pred.secondary for pred in with_effects)


def test_wbuf_zone_reaches_data_and_alarms(benchmark, env):
    """The write-buffer data feeds both the functional output (through
    the array and decoder) and the diagnostic alarms."""
    table = benchmark(lambda: predict_effects_table(env.zone_set))
    wbuf = next(p for name, p in table.items()
                if name.startswith("fmem/wbuf/data"))
    observed = {e.observation for e in wbuf.effects}
    assert "hrdata" in observed
    assert any(o.startswith("alarm") for o in observed)


def test_measured_effects_subset_of_predicted(benchmark, env):
    campaign = CampaignSupervisor(env.spec(), workers=1).run(env.candidates())
    predicted = predict_effects_table(env.zone_set)

    comparison = benchmark(lambda: ResultAnalyzer(
        campaign).compare_effects(predicted))
    report(benchmark,
           checked_zones=comparison.checked_zones,
           measured_effects=comparison.measured_effects)
    assert comparison.consistent


def test_wide_fault_multiple_failures(benchmark, env):
    """Figure 2: a single wide fault fails several zones at once."""
    from repro.zones import FaultClassifier
    classifier = FaultClassifier(env.zone_set)

    def census():
        multi = 0
        for gi in range(len(env.circuit.gates)):
            if classifier.classify_gate(gi).multiplicity > 1:
                multi += 1
        return multi

    multi = benchmark(census)
    report(benchmark, wide_gates=multi)
    assert multi > 0
