"""Tests for the companion analyses (AVF cross-check, scrubbing)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AvfEstimate,
    ScrubModel,
    assumed_dangerous_fraction,
    avf_report,
    injected_avf,
    scrub_benefit_table,
    simulate_accumulation,
    structural_exposure,
)
from repro.faultinjection import CampaignSupervisor, build_environment
from repro.soc import MemorySubsystem, SubsystemConfig


@pytest.fixture(scope="module")
def setup():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    env = build_environment(sub, quick=True)
    campaign = CampaignSupervisor(env.spec(), workers=1).run(env.candidates())
    return sub, env, campaign


# ----------------------------------------------------------------------
# AVF cross-check
# ----------------------------------------------------------------------
def test_injected_avf_bounds(setup):
    _, env, campaign = setup
    zones = {f.zone for f in (r.fault for r in campaign.results)}
    for zone in zones:
        avf = injected_avf(campaign, zone)
        if avf is not None:
            assert 0.0 <= avf <= 1.0


def test_assumed_dangerous_fraction(setup):
    _, env, _ = setup
    value = assumed_dangerous_fraction(env.worksheet,
                                       env.worksheet.zone_names()[0])
    assert value is not None and 0.0 <= value <= 1.0


def test_structural_exposure(setup):
    _, env, _ = setup
    profile = env.profile()
    reg = next(z for z in env.zone_set.zones
               if z.kind.value == "register"
               and profile.zone_triggered(z))
    exposure = structural_exposure(profile, reg)
    assert exposure is not None and 0.0 < exposure <= 1.0


def test_avf_report_builds(setup):
    _, env, campaign = setup
    report = avf_report(env.zone_set, env.worksheet,
                        campaign=campaign, profile=env.profile())
    assert report.estimates
    text = report.render()
    assert "vulnerability cross-check" in text


def test_avf_consistency_rule():
    est = AvfEstimate(zone="z", injected_avf=0.5,
                      assumed_dangerous_fraction=0.6)
    assert est.consistent() is True
    est2 = AvfEstimate(zone="z", injected_avf=0.9,
                       assumed_dangerous_fraction=0.2)
    assert est2.consistent() is False
    est3 = AvfEstimate(zone="z")
    assert est3.consistent() is None


# ----------------------------------------------------------------------
# scrubbing model
# ----------------------------------------------------------------------
def make_model():
    # 256 words x 39 bits, 0.01 FIT/bit — the paper-scale array
    return ScrubModel(words=256, word_bits=39, bit_fit=0.01)


def test_double_error_probability_monotonic():
    model = make_model()
    p1 = model.double_error_probability(10.0)
    p2 = model.double_error_probability(1000.0)
    assert 0 <= p1 < p2 <= 1


def test_uncorrectable_fit_decreases_with_scrubbing():
    model = make_model()
    fast = model.uncorrectable_fit(1.0)       # hourly scrub
    slow = model.uncorrectable_fit(10000.0)   # ~yearly
    assert fast < slow


def test_scrubbing_beats_no_scrubbing():
    model = make_model()
    mission = 20000.0  # ~automotive lifetime hours
    rows = scrub_benefit_table(model, mission, [1.0, 24.0, 720.0])
    assert all(r["improvement"] > 1.0 for r in rows)
    # faster scrubbing -> bigger improvement
    improvements = [r["improvement"] for r in rows]
    assert improvements == sorted(improvements, reverse=True)


def test_required_interval_meets_target():
    model = make_model()
    target = 1e-4
    interval = model.required_interval(target)
    assert model.uncorrectable_fit(interval) <= target * 1.01


def test_required_interval_unreachable():
    model = ScrubModel(words=10**9, word_bits=128, bit_fit=100.0)
    with pytest.raises(ValueError):
        model.required_interval(1e-12)


def test_invalid_interval():
    with pytest.raises(ValueError):
        make_model().uncorrectable_fit(0)


@given(st.floats(min_value=0.1, max_value=1e5))
@settings(max_examples=30)
def test_double_error_probability_valid(interval):
    p = make_model().double_error_probability(interval)
    assert 0.0 <= p <= 1.0


def test_small_mu_quadratic_approximation():
    model = make_model()
    t = 1.0
    mu = model.word_rate_per_hour * t
    approx = mu * mu / 2
    assert model.double_error_probability(t) == \
        pytest.approx(approx, rel=0.01)


def test_monte_carlo_agrees_with_model():
    # exaggerate the rate so doubles are observable in 20k trials
    model = ScrubModel(words=1, word_bits=39, bit_fit=2e6)
    result = simulate_accumulation(model, interval_hours=1.0,
                                   trials=20000, seed=9)
    assert result.modeled_probability > 1e-3
    assert result.agrees(), (result.measured_probability,
                             result.modeled_probability)


def test_sweep_series():
    model = make_model()
    series = model.sweep([1, 10, 100])
    assert len(series) == 3
    fits = [fit for _, fit in series]
    assert fits == sorted(fits)
    assert not any(math.isnan(f) for f in fits)


# ----------------------------------------------------------------------
# SET derating (paper §3's glitch-masking remark)
# ----------------------------------------------------------------------
def test_set_derating_measurement(setup):
    from repro.analysis import derated_gate_fit, measure_set_derating
    from repro.soc import validation_workload
    sub, env, _ = setup
    result = measure_set_derating(
        sub.circuit, env.stimuli, samples=80, seed=5,
        setup=sub.preload_image())
    assert result.injections == 80
    # most glitches are masked (logical + latch-window masking), but
    # a meaningful fraction becomes soft errors
    assert 0.02 < result.latch_fraction < 0.9
    assert result.observe_fraction <= result.latch_fraction + 1e-9
    derated = derated_gate_fit(0.01, result)
    assert derated == pytest.approx(0.01 * result.latch_fraction)
    assert "SET derating" in result.summary()


def test_set_derating_requires_workload(setup):
    from repro.analysis import measure_set_derating
    sub, _, _ = setup
    with pytest.raises(ValueError):
        measure_set_derating(sub.circuit, [], samples=5)


def test_derating_deterministic(setup):
    from repro.analysis import measure_set_derating
    sub, env, _ = setup
    kw = dict(samples=40, seed=9,
              setup=sub.preload_image())
    a = measure_set_derating(sub.circuit, env.stimuli, **kw)
    b = measure_set_derating(sub.circuit, env.stimuli, **kw)
    assert a.latched == b.latched and a.observed == b.observed
