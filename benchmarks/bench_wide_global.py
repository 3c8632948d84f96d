"""E8 — §5(d): selective wide/global HW fault injection.

"for wide/global HW faults, a selective fault injection is performed.
The validation is successful if the results of such injection confirm
the results of the exhaustive sensible zone failure fault injection" —
i.e. wide/global faults must not produce effects the zone-level
analysis cannot explain.
"""

from conftest import report

import pytest

from repro.faultinjection import (
    BridgeFault,
    CampaignSupervisor,
    CandidateList,
    GlobalStuckFault,
    build_environment,
)
from repro.zones import FaultClass, FaultClassifier, ZoneKind, \
    predict_effects_table


@pytest.fixture(scope="module")
def env(improved_small):
    return build_environment(improved_small, quick=True)


def _wide_global_faults(env, pairs=4, globals_=2):
    faults = []
    for (za, zb), _n in env.zone_set.correlation.correlated_pairs()[
            :pairs]:
        a, b = env.zone_set.by_name(za), env.zone_set.by_name(zb)
        if a.nets and b.nets:
            faults.append(BridgeFault(
                target=env.circuit.net_names[a.nets[0]], zone=za,
                victim=env.circuit.net_names[b.nets[0]]))
    critical = env.zone_set.of_kind(ZoneKind.CRITICAL_NET)
    critical.sort(key=lambda z: -z.attrs.get("fanout", 0))
    for zone in critical[:globals_]:
        faults.append(GlobalStuckFault(
            target=zone.name, zone=zone.name,
            nets=tuple(env.circuit.net_names[n] for n in zone.nets),
            value=0))
    return CandidateList(faults=faults)


def test_wide_global_injection_consistent(benchmark, env):
    faults = _wide_global_faults(env)

    campaign = benchmark.pedantic(
        lambda: CampaignSupervisor(
            env.spec(), workers=1).run(faults), rounds=1,
        iterations=1)

    predicted = predict_effects_table(env.zone_set)
    classifier = FaultClassifier(env.zone_set)
    unexplained = []
    for res in campaign.results:
        fault = res.fault
        zones = set()
        if isinstance(fault, BridgeFault):
            zones = {fault.zone,
                     *classifier.classify_net(fault.victim).zones,
                     *classifier.classify_net(fault.target).zones}
        else:
            for net in fault.nets:
                zones |= set(classifier.classify_net(net).zones)
        reachable = set()
        for z in zones:
            pred = predicted.get(z)
            if pred:
                reachable |= {e.observation for e in pred.effects}
        for point in res.effects:
            if reachable and point not in reachable:
                unexplained.append((fault.name, point))

    report(benchmark, wide_global_faults=len(faults),
           unexplained_effects=len(unexplained))
    assert not unexplained, unexplained


def test_fault_extent_classification(benchmark, env):
    """Local/wide/global census over the whole netlist (§3)."""
    classifier = FaultClassifier(env.zone_set)

    census = benchmark(classifier.census)
    report(benchmark, census=census)
    assert census[FaultClass.LOCAL.value] > 0
    assert census[FaultClass.WIDE.value] > 0
    total = sum(census.values())
    # most logic sits in a single zone's cone (local faults dominate)
    assert census[FaultClass.LOCAL.value] > 0.3 * total
