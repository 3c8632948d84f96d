#!/usr/bin/env python3
"""The §5 validation flow end to end, plus the SRS compliance verdict.

Runs on the improved memory sub-system:

a) exhaustive sensible-zone fault injection, cross-checked against the
   FMEA's S/DDF claims and the predicted main/secondary effects table;
b) workload completeness (toggle coverage >= 99 %);
c) selective local (gate-level stuck-at) injection in the critical
   areas + fault simulation of permanent faults;
d) selective wide/global fault injection;
e) SENS/OBSE/DIAG campaign-completeness (must be 100 %).

Finally the evidence is bundled into a Safety Requirements
Specification and assessed for IEC 61508 compliance — the programmatic
equivalent of the TÜV-SÜD assessment the paper reports.

Run:  python examples/fault_injection_validation.py
      (add --paper-size for the 32-bit configuration; slower)
"""

import sys
import time

from repro.faultinjection import (
    ResultAnalyzer,
    build_environment,
    run_validation,
)
from repro.iec61508 import SIL, SafetyRequirementsSpecification
from repro.soc import MemorySubsystem, SubsystemConfig


def main():
    paper_size = "--paper-size" in sys.argv
    cfg = SubsystemConfig.improved() if paper_size \
        else SubsystemConfig.small_improved()
    sub = MemorySubsystem(cfg)
    print(f"design: {cfg.name}  {sub.circuit.stats()}")

    env = build_environment(sub, quick=True)
    print(f"injection environment: {env.as_config_dict()}")

    started = time.time()
    report = run_validation(sub, env=env, quick=True)
    print(f"\n{report.summary()}")
    print(f"\n(validation wall time: {time.time() - started:.1f}s)")

    if report.coverage is not None:
        print()
        print(report.coverage.report())

    # the analyzer's detailed views
    if report.campaign is not None:
        analyzer = ResultAnalyzer(report.campaign)
        print()
        print(analyzer.outcome_report())
        print()
        print(analyzer.agreement_report(env.worksheet))

    # bundle everything into the SRS and assess.  The reduced (8-bit,
    # 16-word) configuration trades memory/logic ratio for runtime and
    # honestly lands at SIL2; the paper-size design reaches SIL3 (run
    # with --paper-size, or see examples/memory_subsystem_fmea.py).
    target = SIL.SIL3 if paper_size else SIL.SIL2
    srs = SafetyRequirementsSpecification(
        name=f"SRS-{cfg.name}", target_sil=target, hft=0,
        fmea=env.worksheet, validation=report,
        toggle_report=report.toggle)
    print()
    print(srs.assess().summary())

    if not paper_size:
        full = MemorySubsystem(SubsystemConfig.improved())
        sff = full.worksheet().totals().sff
        print(f"\n(paper-size improved design: FMEA SFF "
              f"{sff * 100:.2f}% -> SIL3; rerun with --paper-size "
              f"to validate it by injection)")


if __name__ == "__main__":
    main()
