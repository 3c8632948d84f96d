"""Extension analyses around the paper's flow.

* AVF cross-check (refs [13][14]): the FMEA's assumed dangerous
  fractions against the injection-measured vulnerability;
* SET derating (§3's glitch-masking remark): the measured fraction of
  combinational glitches that become soft errors;
* fault dictionary: diagnosability of the improved design's alarm set
  (what §6's distributed syndrome checking buys);
* X-propagation reset sign-off.
"""

from conftest import report

import pytest

from repro.analysis import avf_report, measure_set_derating
from repro.faultinjection import (
    CampaignSupervisor,
    FaultDictionary,
    build_environment,
)
from repro.hdl import reset_coverage


@pytest.fixture(scope="module")
def env(improved_small):
    return build_environment(improved_small, quick=True)


@pytest.fixture(scope="module")
def campaign(env):
    return CampaignSupervisor(env.spec(), workers=1).run(env.candidates())


def test_avf_cross_check(benchmark, env, campaign):
    result = benchmark(lambda: avf_report(
        env.zone_set, env.worksheet, campaign=campaign,
        profile=env.profile()))
    inconsistent = result.inconsistent(tolerance=0.5)
    report(benchmark,
           zones_checked=len(result.estimates),
           assumption_violations=len(inconsistent))
    assert result.estimates
    # the FMEA's danger assumptions must broadly cover the measured AVF
    with_measure = [e for e in result.estimates
                    if e.injected_avf is not None]
    assert len(inconsistent) <= len(with_measure) * 0.25


def test_set_derating(benchmark, improved_small, env):
    result = benchmark.pedantic(
        lambda: measure_set_derating(
            improved_small.circuit, env.stimuli, samples=150, seed=3,
            setup=improved_small.preload_image()),
        rounds=1, iterations=1)
    report(benchmark, summary=result.summary())
    # most SET glitches are masked — the §3 argument for derating the
    # per-gate transient FIT
    assert result.latch_fraction < 0.6
    assert result.latch_fraction > 0.02


def test_fault_dictionary_diagnosability(benchmark, campaign):
    dictionary = benchmark(lambda: FaultDictionary.build(campaign))
    report(benchmark, summary=dictionary.summary())
    # §6 iii: the distributed alarms give real diagnosability
    assert dictionary.distinct_signatures > 10
    assert dictionary.resolution() > 0.25
    # diagnosing every campaign effect lands the true zone in top-5
    hits = total = 0
    for res in campaign.results:
        if res.effects and res.fault.zone:
            total += 1
            top = dictionary.diagnose(res.effects, top=5)
            hits += any(c.zone == res.fault.zone for c in top)
    benchmark.extra_info["top5_accuracy"] = f"{hits / total * 100:.0f}%"
    assert hits / total > 0.7


def test_reset_sign_off(benchmark, improved_small):
    sub = improved_small

    def run():
        reset = [sub.reset_op() for _ in range(3)]
        check = [sub.write(2, 0x11), sub.idle(), sub.idle(),
                 sub.read(2), sub.idle(), sub.idle(), sub.idle()]
        return reset_coverage(sub.circuit, reset, check)

    result = benchmark(run)
    report(benchmark, summary=result.summary())
    assert result.clean
    # the datapath intentionally has un-reset registers
    assert not result.fully_initialized
