"""Tests for the FMEA spreadsheet engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fmea import (
    DiagnosticClaim,
    DiagnosticPlan,
    FitModel,
    FmeaEntry,
    FmeaWorksheet,
    FrequencyClass,
    SDFactors,
    build_worksheet,
    combine_coverage,
    critical_zones,
    criticality_report,
    full_report,
    rank_zones,
    stability_report,
    summary_report,
)
from repro.hdl import Module
from repro.iec61508 import SIL, PU_BIT_FLIP, PU_DC_FAULT
from repro.zones import SensibleZone, ZoneKind, extract_zones


def make_entry(zone="z", fit=100.0, s=0.4, claims=(), kind=None,
               mode=PU_BIT_FLIP, freq=FrequencyClass.F1):
    return FmeaEntry(
        zone=zone, zone_kind=kind or ZoneKind.REGISTER,
        failure_mode=mode, raw_fit=fit,
        factors=SDFactors(architectural=s), frequency=freq,
        claims=list(claims))


# ----------------------------------------------------------------------
# entries
# ----------------------------------------------------------------------
def test_entry_rates_split():
    entry = make_entry(fit=100, s=0.4,
                       claims=[DiagnosticClaim("ram_ecc_hamming", 0.99)])
    rates = entry.rates()
    assert rates.lambda_s == pytest.approx(40)
    assert rates.lambda_dd == pytest.approx(60 * 0.99)
    assert rates.lambda_du == pytest.approx(60 * 0.01)


def test_claim_clamped_to_norm_maximum():
    entry = make_entry(claims=[DiagnosticClaim("ram_parity", 0.95)])
    assert entry.ddf == pytest.approx(0.60)  # parity caps at low (60%)


def test_combine_coverage_union():
    claims = [DiagnosticClaim("ram_ecc_hamming", 0.90),
              DiagnosticClaim("ram_test_walkpath", 0.50)]
    assert combine_coverage(claims) == pytest.approx(1 - 0.1 * 0.5)


def test_hw_sw_ddf_split():
    entry = make_entry(claims=[
        DiagnosticClaim("ram_ecc_hamming", 0.99),       # HW
        DiagnosticClaim("ram_test_checkerboard", 0.60),  # SW
    ])
    assert entry.ddf_hw == pytest.approx(0.99)
    assert entry.ddf_sw == pytest.approx(0.60)
    assert entry.ddf > entry.ddf_hw


def test_frequency_class_reduces_dangerous_fraction():
    busy = make_entry(freq=FrequencyClass.F1)
    idle = make_entry(freq=FrequencyClass.F4)
    assert idle.safe_fraction > busy.safe_fraction
    assert idle.rates().lambda_du < busy.rates().lambda_du


@given(st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_safe_fraction_bounds(s_arch, exposure_s):
    factors = SDFactors(architectural=s_arch,
                        applicational=exposure_s,
                        use_applicational=True)
    for freq in FrequencyClass:
        sf = factors.effective_safe_fraction(freq)
        assert 0.0 <= sf <= 1.0


# ----------------------------------------------------------------------
# worksheet aggregation
# ----------------------------------------------------------------------
def test_worksheet_totals_and_sil():
    sheet = FmeaWorksheet("t")
    # 1000 FIT of well-covered memory, 10 FIT of uncovered logic
    sheet.add(make_entry("mem", fit=1000, s=0.2,
                         claims=[DiagnosticClaim("ram_ecc_hamming", 0.99)],
                         kind=ZoneKind.MEMORY))
    sheet.add(make_entry("logic", fit=10, s=0.4))
    totals = sheet.totals()
    assert 0.9 < totals.sff < 1.0
    assert sheet.sil(hft=0) in (SIL.SIL2, SIL.SIL3)


def test_worksheet_row_lookup_and_measurement():
    sheet = FmeaWorksheet()
    sheet.add(make_entry("z1", mode=PU_BIT_FLIP))
    sheet.record_measurement("z1", "bit_flip", measured_ddf=0.42)
    entry = sheet.row("z1", "bit_flip")
    assert entry.measured_ddf == pytest.approx(0.42)
    assert entry.validation_gap() == pytest.approx(abs(0.0 - 0.42))
    assert sheet.worst_validation_gap() == pytest.approx(0.42)
    with pytest.raises(KeyError):
        sheet.row("z1", "nonexistent")


def test_worksheet_csv_export():
    sheet = FmeaWorksheet()
    sheet.add(make_entry("z1"))
    sheet.add(make_entry("z2", mode=PU_DC_FAULT))
    csv_text = sheet.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("zone,kind,failure_mode")
    assert "z1" in lines[1]


def test_totals_by_persistence():
    sheet = FmeaWorksheet()
    sheet.add(make_entry("a", fit=10, mode=PU_BIT_FLIP))
    sheet.add(make_entry("a", fit=20, mode=PU_DC_FAULT))
    split = sheet.totals_by_persistence()
    assert split["transient"].total == pytest.approx(10)
    assert split["permanent"].total == pytest.approx(20)


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
def _toy_zone_set():
    m = Module("toy")
    a = m.input("a", 8)
    wdata = m.input("wdata", 8)
    we = m.input("we")
    q = m.reg("ctrl/state", a)
    rdata = m.memory("ram", 16, 8, a[0:4], wdata, we)
    m.output("y", q ^ rdata)
    return extract_zones(m.build())


def test_build_worksheet_covers_all_modes():
    zs = _toy_zone_set()
    sheet = build_worksheet(zs)
    # memory zones get 4 IEC modes, register zones get 4
    mem_rows = [e for e in sheet if e.zone_kind is ZoneKind.MEMORY]
    assert len(mem_rows) == 4
    assert {e.failure_mode.name for e in mem_rows} == {
        "dc_fault", "dynamic_crossover", "addressing", "soft_error"}


def test_build_worksheet_fit_conservation():
    zs = _toy_zone_set()
    fit = FitModel()
    sheet = build_worksheet(zs, fit_model=fit)
    for zone in zs.zones:
        rows = sheet.rows_for_zone(zone.name)
        if not rows:
            continue
        t_fit, p_fit = fit.zone_fit(zone)
        assert sum(e.raw_fit for e in rows) == pytest.approx(t_fit + p_fit)


def test_plan_pattern_coverage():
    zs = _toy_zone_set()
    plan = DiagnosticPlan()
    plan.cover("ram*", "ram_ecc_hamming", 0.99)
    plan.cover("ctrl/*", "cpu_self_test_sw", 0.55,
               persistence="permanent")
    sheet = build_worksheet(zs, plan=plan)
    mem_row = next(e for e in sheet if e.zone_kind is ZoneKind.MEMORY)
    assert mem_row.ddf == pytest.approx(0.99)
    reg_perm = sheet.row("ctrl/state", "dc_fault")
    assert reg_perm.ddf > 0
    reg_trans = sheet.row("ctrl/state", "bit_flip")
    assert reg_trans.ddf == 0  # rule was permanent-only


def test_plan_factor_rules():
    zs = _toy_zone_set()
    plan = DiagnosticPlan()
    plan.set_factors("ctrl/*", frequency=FrequencyClass.F4)
    sheet = build_worksheet(zs, plan=plan)
    assert sheet.row("ctrl/state", "bit_flip").frequency is \
        FrequencyClass.F4


def test_plan_persistence_factor_rules_apply_in_rule_order():
    zs = _toy_zone_set()
    transient = SDFactors(architectural=0.9)
    permanent = SDFactors(architectural=0.2)
    later = SDFactors(architectural=0.5)
    plan = DiagnosticPlan()
    plan.set_factors("ctrl/*", transient_factors=transient,
                     permanent_factors=permanent)
    sheet = build_worksheet(zs, plan=plan)
    assert sheet.row("ctrl/state", "bit_flip").factors == transient
    assert sheet.row("ctrl/state", "dc_fault").factors == permanent
    plan.set_factors("ctrl/state", factors=later)
    sheet = build_worksheet(zs, plan=plan)
    assert sheet.row("ctrl/state", "bit_flip").factors == later
    assert sheet.row("ctrl/state", "dc_fault").factors == later


def test_worksheet_matches_each_rule_once_per_zone(monkeypatch):
    """Every zone name meets each coverage and each factor rule once,
    however many failure modes and persistences the zone has."""
    import repro.fmea.builder as builder
    from repro.service.core import make_subsystem
    sub = make_subsystem("small-baseline", banks=2)
    zone_set = sub.extract_zones()
    plan = sub.diagnostic_plan()
    match = builder.fnmatch
    calls = []

    def counted(name, pattern):
        calls.append(name)
        return match(name, pattern)
    monkeypatch.setattr(builder, "fnmatch", counted)
    builder.build_worksheet(zone_set, plan=plan)
    zones = [z for z in zone_set.zones
             if z.kind in builder.DEFAULT_WORKSHEET_KINDS]
    rules = len(plan.coverage) + len(plan.factors)
    assert len(calls) == len(zones) * rules


def test_coverage_improves_sff():
    zs = _toy_zone_set()
    bare = build_worksheet(zs)
    plan = DiagnosticPlan().cover("*", "ram_ecc_hamming", 0.99)
    covered = build_worksheet(zs, plan=plan)
    assert covered.sff > bare.sff


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------
def test_ranking_orders_by_du():
    sheet = FmeaWorksheet()
    sheet.add(make_entry("covered", fit=1000,
                         claims=[DiagnosticClaim("ram_ecc_hamming", 0.99)]))
    sheet.add(make_entry("naked", fit=100))
    rows = rank_zones(sheet)
    assert rows[0].zone == "naked"   # uncovered zone dominates λDU
    assert rows[0].du_share > 0.5
    assert rows[-1].cumulative == pytest.approx(1.0)


def test_critical_zones_threshold():
    sheet = FmeaWorksheet()
    sheet.add(make_entry("big", fit=1000))
    sheet.add(make_entry("tiny", fit=0.01))
    crit = critical_zones(sheet, du_share_threshold=0.05)
    assert crit == ["big"]


# ----------------------------------------------------------------------
# sensitivity
# ----------------------------------------------------------------------
def _two_zone_sheet():
    sheet = FmeaWorksheet("sens")
    sheet.add(make_entry("mem", fit=1000, s=0.2,
                         claims=[DiagnosticClaim("ram_ecc_hamming", 0.99)],
                         kind=ZoneKind.MEMORY))
    sheet.add(make_entry("logic", fit=20, s=0.4,
                         claims=[DiagnosticClaim("cpu_self_test_sw", 0.6)]))
    return sheet


def test_sensitivity_spans_produce_results():
    report = stability_report(_two_zone_sheet())
    assert len(report.results) >= 6
    assert report.nominal_sff > 0.9
    # every span keeps SFF within [0, 1]
    assert all(0 <= r.sff <= 1 for r in report.results)


def test_sensitivity_detects_instability():
    # an uncovered high-FIT zone makes SFF fragile vs fault models
    sheet = FmeaWorksheet()
    sheet.add(make_entry("good", fit=100, s=0.2,
                         claims=[DiagnosticClaim("ram_ecc_hamming", 0.99)],
                         kind=ZoneKind.MEMORY))
    sheet.add(make_entry("bad", fit=30, s=0.1, mode=PU_DC_FAULT))
    report = stability_report(sheet)
    assert not report.stable(tolerance=0.005)


def test_sensitivity_well_covered_sheet_is_stable():
    sheet = FmeaWorksheet()
    for name in ("a", "b"):
        sheet.add(make_entry(name, fit=500, s=0.2,
                             claims=[DiagnosticClaim("ram_ecc_hamming",
                                                     0.99)],
                             kind=ZoneKind.MEMORY))
    report = stability_report(sheet)
    assert report.stable(tolerance=0.01)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def test_reports_render():
    sheet = _two_zone_sheet()
    text = full_report(sheet)
    assert "FMEA summary" in text
    assert "critical sensible zones" in text
    assert "SFF" in summary_report(sheet)
    assert "mem" in criticality_report(sheet) or \
        "logic" in criticality_report(sheet)
