"""Tests for the soc-fmea command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zones_command(capsys):
    code, out = run_cli(capsys, "zones", "--variant", "small-improved")
    assert code == 0
    assert "sensible zones" in out
    assert "register" in out


def test_zones_list(capsys):
    code, out = run_cli(capsys, "zones", "--variant", "small-baseline",
                        "--list")
    assert code == 0
    assert "fmem/decoder" in out


def test_fmea_command(capsys, tmp_path):
    csv_path = tmp_path / "sheet.csv"
    code, out = run_cli(capsys, "fmea", "--variant", "small-improved",
                        "--csv", str(csv_path))
    assert code == 0
    assert "FMEA summary" in out
    assert "SFF" in out
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("zone,kind,failure_mode")


def test_sensitivity_command(capsys):
    code, out = run_cli(capsys, "sensitivity", "--variant",
                        "small-improved", "--tolerance", "0.02")
    assert code == 0
    assert "nominal SFF" in out


def test_verilog_command(capsys, tmp_path):
    out_path = tmp_path / "netlist.v"
    code, _ = run_cli(capsys, "verilog", "--variant", "small-baseline",
                      "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("module memss_small_baseline")
    assert "endmodule" in text


def test_validate_command(capsys):
    code, out = run_cli(capsys, "validate", "--variant",
                        "small-improved")
    assert code == 0
    assert "overall: PASS" in out


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("argv,golden,exit_code", [
    (("validate", "--variant", "small-improved"),
     "validate_small-improved.txt", 0),
    (("validate", "--variant", "small-baseline"),
     "validate_small-baseline.txt", 0),
    (("derating", "--variant", "small-improved", "--seed", "3"),
     "derating_small-improved_seed3.txt", 0),
    (("validate", "--variant", "small-improved", "--full"),
     "validate_small-improved_full.txt", 0),
    (("dossier", "--variant", "small-improved"),
     "dossier_small-improved.txt", 0),
])
def test_cli_output_matches_golden(capsys, argv, golden, exit_code):
    """The verdict text and numbers are pinned byte for byte."""
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text()


def test_dossier_extracts_zones_once(capsys, monkeypatch):
    """The dossier's validation runs on the zone set the dossier
    already extracted."""
    from repro.soc.subsystem import MemorySubsystem
    calls = []
    extract = MemorySubsystem.extract_zones

    def counted(self, *args, **kwargs):
        calls.append(self.cfg.name)
        return extract(self, *args, **kwargs)
    monkeypatch.setattr(MemorySubsystem, "extract_zones", counted)
    code, _ = run_cli(capsys, "dossier", "--variant", "small-improved")
    assert code == 0
    assert len(calls) == 1


def test_compare_command(capsys):
    code, out = run_cli(capsys, "compare")
    assert code == 0
    assert "baseline" in out and "improved" in out
    # the experiment's conclusion: improved reaches SIL3, baseline not
    lines = [ln for ln in out.splitlines() if "|" in ln]
    base_line = next(ln for ln in lines if "baseline" in ln)
    impr_line = next(ln for ln in lines if "improved" in ln)
    assert "no" in base_line and "yes" in impr_line


def test_campaign_command_serial(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--variant",
                        "small-improved", "--sample", "24",
                        "--store", str(tmp_path / "store"))
    assert code == 0
    assert "measured DC" in out
    assert "1 worker(s)" in out


def test_campaign_command_sharded(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--variant",
                        "small-improved", "--sample", "24",
                        "--workers", "2", "--progress",
                        "--store", str(tmp_path / "store"))
    assert code == 0
    assert "24 faults" in out
    assert "2 worker(s)" in out
    assert "24/24 faults simulated" in out


def test_campaign_no_cache_leaves_no_store(capsys, tmp_path,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "campaign", "--variant",
                        "small-improved", "--sample", "12",
                        "--no-cache")
    assert code == 0
    assert "store:" not in out
    assert not (tmp_path / ".socfmea_store").exists()


def test_campaign_cache_round_trip(capsys, tmp_path):
    store = str(tmp_path / "store")
    code, cold = run_cli(capsys, "campaign", "--variant",
                         "small-improved", "--sample", "24",
                         "--store", store)
    assert code == 0
    assert "24 misses" in cold and "0 hits" in cold

    code, warm = run_cli(capsys, "--store", store, "campaign",
                         "--variant", "small-improved",
                         "--sample", "24")
    assert code == 0
    assert "24 hits, 0 misses (100.0% hit rate)" in warm
    assert "0 faults simulated" in warm

    def metrics(text):
        return [ln for ln in text.splitlines()
                if ln.startswith("measured")]
    assert metrics(cold) == metrics(warm)


def test_store_subcommands(capsys, tmp_path):
    store = str(tmp_path / "store")
    for _ in range(2):
        code, _ = run_cli(capsys, "campaign", "--variant",
                          "small-improved", "--sample", "24",
                          "--store", store)
        assert code == 0

    code, out = run_cli(capsys, "store", "stats", "--store", store)
    assert code == 0
    assert "recorded runs         : 2" in out
    assert "cached fault outcomes : 24" in out

    code, out = run_cli(capsys, "store", "query", "--store", store)
    assert code == 0
    assert "recorded campaign runs" in out
    assert "memss_small_improved" in out

    code, out = run_cli(capsys, "store", "query", "--store", store,
                        "--run", "2")
    assert code == 0
    assert "run #2" in out and "measured DC" in out

    code, out = run_cli(capsys, "store", "diff", "--store", store)
    assert code == 0       # identical reruns: nothing regressed
    assert "store diff: run #1 -> #2" in out
    assert "faults reclassified : 0" in out

    code, out = run_cli(capsys, "store", "gc", "--store", store,
                        "--keep", "1")
    assert code == 0
    assert "runs removed     : 1" in out


def test_store_diff_needs_history(capsys, tmp_path):
    code = main(["store", "diff", "--store",
                 str(tmp_path / "empty")])
    assert code == 1
    assert "two completed runs" in capsys.readouterr().err


def test_version_flag(capsys):
    from repro import __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_store_env_override(tmp_path, monkeypatch):
    from repro.cli import DEFAULT_STORE, resolve_store_path
    parser = build_parser()
    monkeypatch.delenv("SOCFMEA_STORE", raising=False)
    args = parser.parse_args(["campaign"])
    assert resolve_store_path(args) == DEFAULT_STORE
    monkeypatch.setenv("SOCFMEA_STORE", str(tmp_path / "env"))
    assert resolve_store_path(args) == str(tmp_path / "env")
    args = parser.parse_args(["campaign", "--store",
                              str(tmp_path / "flag")])
    assert resolve_store_path(args) == str(tmp_path / "flag")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_xcheck_command(capsys):
    code, out = run_cli(capsys, "xcheck", "--variant",
                        "small-improved")
    assert code == 0
    assert "reset coverage" in out
    assert "CLEAN" in out


def test_derating_command(capsys):
    code, out = run_cli(capsys, "derating", "--variant",
                        "small-improved", "--samples", "40")
    assert code == 0
    assert "SET derating" in out


def test_dossier_command(capsys, tmp_path):
    out_path = tmp_path / "dossier.txt"
    code, out = run_cli(capsys, "dossier", "--variant",
                        "small-improved", "--no-validation",
                        "--target-sil", "2", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "SAFETY DOSSIER" in text
    assert "verdict" in text
