"""E7 — §5(c): selective local HW fault injection in critical areas.

"for critical areas ... a selective HW fault injection is performed,
injecting local faults with fault injector.  The validation is
successful if the results of such injection confirm the results of the
exhaustive sensible zone failure fault injection. ... the fault
simulator can be used to precisely measure the fault coverage vs
permanent faults respect the workload and the implemented diagnostic."
"""

from conftest import report

import pytest

from repro.faultinjection import (
    CampaignSupervisor,
    build_environment,
    generate_cone_faults,
    generate_gate_faults,
    simulate_faults,
)
from repro.fmea import rank_zones
from repro.zones import ZoneKind


@pytest.fixture(scope="module")
def env(improved_small):
    return build_environment(improved_small, quick=True)


def _critical_register_zones(env, count=4):
    zones = []
    for row in rank_zones(env.worksheet):
        try:
            zone = env.zone_set.by_name(row.zone)
        except KeyError:
            continue
        if zone.kind is ZoneKind.REGISTER and zone.path:
            zones.append(zone.name)
        if len(zones) >= count:
            break
    return zones


def test_local_cone_injection(benchmark, env):
    zones = _critical_register_zones(env)
    faults = generate_cone_faults(env.zone_set, env.circuit, zones,
                                  per_zone=20)

    campaign = benchmark.pedantic(
        lambda: CampaignSupervisor(
            env.spec(), workers=1).run(faults), rounds=1,
        iterations=1)
    dc = campaign.measured_dc()
    report(benchmark, critical_zones=zones,
           gate_faults=len(faults),
           local_dc=f"{dc * 100:.1f}%")
    assert len(campaign.results) == len(faults)
    # zone-level campaign on the same areas for consistency
    zone_campaign = CampaignSupervisor(
        env.spec(), workers=1).run(env.candidates())
    zone_dc = zone_campaign.measured_dc()
    # "results of such injection confirm the results of the exhaustive
    # sensible zone failure fault injection"
    assert abs(dc - zone_dc) < 0.45


def test_fault_simulator_coverage(benchmark, improved_small, env):
    """Permanent-fault coverage of the decoder under the workload."""
    faults = generate_gate_faults(improved_small.circuit,
                                  paths=("fmem/decoder",))

    result = benchmark.pedantic(
        lambda: simulate_faults(
            improved_small.circuit, env.stimuli, candidates=faults,
            setup=env.setup),
        rounds=1, iterations=1)
    report(benchmark, summary=result.summary())
    assert result.total == len(faults)
    # the decoder is heavily exercised: most stuck-ats are observable
    assert result.coverage > 0.5
    # throughput worth tracking: faults simulated per second
    benchmark.extra_info["faults_per_second"] = (
        f"{result.total / max(result.wall_seconds, 1e-9):.0f}")
