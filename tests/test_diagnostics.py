"""Malformed-input corpus and diagnostics-subsystem tests.

Every CLI entry point that consumes a user file must, when fed garbage,
exit with status 2, print at least one coded diagnostic (``Exxx``) and
never leak a Python traceback.  The corpus under
``tests/data/malformed/`` seeds one file per defect class; the
parametrized test below drives each through the relevant verb.

Also covered here: the recovery parser's source locations, worksheet
schema migration and forward compatibility, zone-lookup suggestions,
``store fsck`` corruption detection with a repair → bit-identical warm
re-run round trip, degraded campaign bounds, and the ``E001`` internal
error guard.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main
from repro.diagnostics import DiagnosticReport
from repro.faultinjection import (
    CampaignSupervisor,
    CandidateList,
    build_environment,
)
from repro.fmea.io import (
    WORKSHEET_MIGRATIONS,
    WorksheetFormatError,
    worksheet_from_dict,
)
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.store import CampaignCache, fsck_store
from repro.zones import zone_config_to_dict

MALFORMED = Path(__file__).parent / "data" / "malformed"
REPO = Path(__file__).parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def env():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return build_environment(sub, quick=True)


def _fault_rows(campaign):
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


# ----------------------------------------------------------------------
# the malformed corpus: exit 2, coded diagnostics, no traceback
# ----------------------------------------------------------------------
CORPUS = [
    ("fmea-truncated",
     ("fmea", "--load", "worksheet_truncated.json"), {"E300"}),
    ("fmea-bad-schema",
     ("fmea", "--load", "worksheet_bad_schema.json"), {"E301"}),
    ("fmea-bad-fields",
     ("fmea", "--load", "worksheet_bad_fields.json"),
     {"E302", "E303", "E304", "E305"}),
    ("zones-bad-arity",
     ("zones", "--netlist", "verilog_bad_arity.v"), {"E102", "E104"}),
    ("zones-empty-netlist",
     ("zones", "--netlist", "verilog_empty.v"), {"E101"}),
    ("campaign-unknown-zones",
     ("campaign", "--variant", "small-improved", "--no-cache",
      "--sample", "4", "--zones", "zones_unknown.json"), {"E200"}),
    ("campaign-unknown-stimuli",
     ("campaign", "--variant", "small-improved", "--no-cache",
      "--stimuli", "stimuli_unknown.json"), {"E211"}),
    ("campaign-truncated-stimuli",
     ("campaign", "--variant", "small-improved", "--no-cache",
      "--stimuli", "stimuli_bad_json.json"), {"E210"}),
    ("doctor-bad-netlist",
     ("doctor", MALFORMED, "--no-store",
      "--netlist", "verilog_bad_arity.v"), {"E102", "E104"}),
    ("doctor-worksheet-zone-drift",
     ("doctor", MALFORMED, "--no-store",
      "--zones", "zones_unknown.json",
      "--worksheet", "worksheet_bad_fields.json"), {"E310"}),
]


@pytest.mark.parametrize("argv,codes",
                         [c[1:] for c in CORPUS],
                         ids=[c[0] for c in CORPUS])
def test_malformed_input_is_diagnosed(capsys, argv, codes):
    argv = [MALFORMED / a if isinstance(a, str)
            and (MALFORMED / a).is_file() else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    text = out + err
    assert code == 2, text
    for expected in codes:
        assert expected in text
    assert "Traceback" not in text


def test_malformed_input_subprocess_smoke():
    """Through a real shell invocation: exit 2, coded, no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fmea",
         "--load", str(MALFORMED / "worksheet_truncated.json")],
        capture_output=True, text=True, env=ENV, cwd=str(REPO))
    assert proc.returncode == 2
    assert "E300" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


# ----------------------------------------------------------------------
# recovery parser: every defect site, with line numbers
# ----------------------------------------------------------------------
def test_verilog_recovery_reports_all_sites_with_lines():
    from repro.hdl.verilog import parse_verilog_file
    report = DiagnosticReport()
    circuit = parse_verilog_file(
        MALFORMED / "verilog_bad_arity.v", report=report)
    assert circuit is not None           # good gates survived
    arity = [d for d in report.errors if d.code == "E102"]
    assert {d.location.line for d in arity} == {15, 16}
    assert any(d.code == "E104" for d in report.errors)
    assert all("verilog_bad_arity.v" in (d.location.file or "")
               for d in report.errors)


# ----------------------------------------------------------------------
# worksheet hardening: migration, forward compat, valid subset
# ----------------------------------------------------------------------
VALID_ENTRY = {
    "zone": "block:a",
    "kind": "register",
    "failure_mode": {"name": "seu", "persistence": "transient"},
    "raw_fit": 1.0,
    "factors": {"architectural": 0.5, "applicational": 1.0},
    "frequency": "F1",
    "lifetime_cycles": 100,
    "claims": [{"technique": "ecc", "ddf": 0.9, "software": None}],
}


def test_worksheet_migration_hook(monkeypatch):
    def upgrade(doc):
        doc["schema"] = 1
        doc["entries"] = doc.pop("rows")
        return doc

    monkeypatch.setitem(WORKSHEET_MIGRATIONS, 0, upgrade)
    sheet = worksheet_from_dict(
        {"schema": 0, "name": "legacy", "rows": [dict(VALID_ENTRY)]})
    assert sheet.name == "legacy"
    assert len(sheet.entries) == 1
    assert sheet.entries[0].zone == "block:a"


def test_worksheet_unsupported_schema_is_e301():
    with pytest.raises(WorksheetFormatError, match="E301"):
        worksheet_from_dict({"schema": 99, "name": "x", "entries": []})


def test_worksheet_tolerates_unknown_keys():
    entry = dict(VALID_ENTRY, an_unknown_future_key={"tolerated": True})
    sheet = worksheet_from_dict(
        {"schema": 1, "name": "fwd", "entries": [entry],
         "another_future_key": 7})
    assert len(sheet.entries) == 1


def test_worksheet_collect_mode_returns_valid_subset():
    data = json.loads(
        (MALFORMED / "worksheet_bad_fields.json").read_text())
    report = DiagnosticReport()
    sheet = worksheet_from_dict(data, report=report)
    assert not report.ok
    assert [e.zone for e in sheet.entries] == ["block:ok"]
    # field paths pinpoint each defect
    assert any("entries[0].zone" in d.message for d in report.errors)
    assert any("entries[0].raw_fit" in d.message
               for d in report.errors)


# ----------------------------------------------------------------------
# zone lookup: did-you-mean
# ----------------------------------------------------------------------
def test_zone_lookup_suggests_close_names(env):
    real = env.zone_set.zones[0].name
    typo = real[:-1] + ("x" if real[-1] != "x" else "y")
    with pytest.raises(KeyError) as excinfo:
        env.zone_set.by_name(typo)
    message = str(excinfo.value)
    assert "E200" in message
    assert real in message          # the did-you-mean suggestion


# ----------------------------------------------------------------------
# degraded campaign: completes with bounds, exit 3
# ----------------------------------------------------------------------
def test_degraded_campaign_bounds(capsys, tmp_path, env):
    data = zone_config_to_dict(env.zone_set)
    data["zones"].append({"name": "ghost_zone", "nets": []})
    config = tmp_path / "zones.json"
    config.write_text(json.dumps(data))

    code, out, err = run_cli(
        capsys, "campaign", "--variant", "small-improved", "--no-cache",
        "--sample", "4", "--zones", config, "--degraded")
    assert code == 3, out + err
    assert "ghost_zone" in err
    assert "Metric bounds under degraded evidence" in out
    assert "Traceback" not in out + err


def test_strict_campaign_refuses_unresolvable_zone(capsys, tmp_path,
                                                   env):
    data = zone_config_to_dict(env.zone_set)
    data["zones"].append({"name": "ghost_zone", "nets": []})
    config = tmp_path / "zones.json"
    config.write_text(json.dumps(data))

    code, out, err = run_cli(
        capsys, "campaign", "--variant", "small-improved", "--no-cache",
        "--sample", "4", "--zones", config)
    assert code == 2
    assert "E200" in out + err
    assert "--degraded" in out + err     # the remediation hint


# ----------------------------------------------------------------------
# store fsck: detect, repair, warm re-run is bit-identical
# ----------------------------------------------------------------------
def test_fsck_detects_and_repairs_corruption(env, tmp_path):
    subset = CandidateList(faults=env.candidates().faults[:16])
    store = tmp_path / "store"
    with CampaignCache(store) as cache:
        cache.profile(env)          # the store's one blob
        cold = CampaignSupervisor(env.spec(), cache=cache).run(subset)
    cold_rows = _fault_rows(cold)

    # corrupt one blob, one outcome row, and plant dangling rows
    blobs = sorted((store / "objects").rglob("*"))
    blob = next(p for p in blobs if p.is_file())
    blob.write_bytes(b"garbage")
    with sqlite3.connect(store / "store.db") as con:
        con.execute("UPDATE outcomes SET effects = 'not json' WHERE "
                    "fault_fp = (SELECT MIN(fault_fp) FROM outcomes)")
        con.execute("INSERT INTO run_faults "
                    "(run_id, seq, fault_fp, fault_name, outcome) "
                    "VALUES (999, 0, 'nope', 'ghost', 'missed')")

    with CampaignCache(store) as cache:
        found = fsck_store(cache)
        assert not found.clean
        codes = {d.code for d in found.report.errors}
        assert {"E401", "E404", "E405"} <= codes

        fixed = fsck_store(cache, repair=True)
        assert fixed.repaired       # human-readable repair log

        after = fsck_store(cache)
        assert not after.report.errors

        warm = CampaignSupervisor(env.spec(), cache=cache).run(subset)
    assert _fault_rows(warm) == cold_rows


def test_store_fsck_cli_on_fresh_store(capsys, tmp_path):
    store = tmp_path / "fresh"
    CampaignCache(store).close()
    code, out, err = run_cli(capsys, "store", "fsck", "--store", store)
    assert code == 0
    assert "clean" in out


# ----------------------------------------------------------------------
# doctor over a freshly exported project: zero diagnostics
# ----------------------------------------------------------------------
def test_export_then_doctor_is_clean(capsys, tmp_path):
    project = tmp_path / "proj"
    code, out, err = run_cli(capsys, "export", "--variant",
                             "small-improved", "-o", project)
    assert code == 0
    for name in ("netlist.v", "zones.json", "worksheet.json",
                 "stimuli.json"):
        assert (project / name).is_file()

    code, out, err = run_cli(capsys, "doctor", project, "--json")
    assert code == 0, out + err
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["diagnostics"] == []


# ----------------------------------------------------------------------
# the E001 guard: internal errors never leak a traceback
# ----------------------------------------------------------------------
def test_internal_error_guard(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_compare", boom)
    monkeypatch.delenv("SOCFMEA_DEBUG", raising=False)
    code, out, err = run_cli(capsys, "compare")
    assert code == 1
    assert "E001" in err
    assert "SOCFMEA_DEBUG" in err       # points at the escape hatch
    assert "Traceback" not in out + err

    monkeypatch.setenv("SOCFMEA_DEBUG", "1")
    with pytest.raises(RuntimeError, match="wires crossed"):
        main(["compare"])
