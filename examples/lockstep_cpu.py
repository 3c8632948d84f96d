#!/usr/bin/env python3
"""Processing-unit case study: measuring IEC table A.4's lock-step claim.

The paper's memory sub-system claims its coverage from table A.6
techniques; for processing units table A.4 assesses "HW redundancy
(e.g. lock-step dual core)" as a *high* (99 %) technique — this is the
fault-robust-CPU line of the companion papers [8][16][17].

This example applies the unchanged methodology to a small gate-level
accumulator CPU:

1. run a program on the bare core and on the lock-step pair;
2. build the FMEA for both (the lock-step plan claims
   ``cpu_hw_redundancy`` on the core registers);
3. *measure* the diagnostic coverage by SEU/stuck-at injection into
   every core register — the bare core leaks silent corruptions, the
   lock-step comparator flags essentially all of them.

Run:  python examples/lockstep_cpu.py
"""

from repro.faultinjection import (
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    MemoryImageSetup,
    SeuFault,
    StuckNetFault,
)
from repro.fmea import DiagnosticPlan, build_worksheet
from repro.reporting import render_table, pct
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.zones import ZoneKind, extract_zones

PROGRAM = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
           ("ldi", 0), ("jnz", 0), ("out",)]


def campaign(cpu: MiniCpu):
    """SEU + stuck-at on every core_a register bit."""
    zone_set = extract_zones(cpu.circuit)
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80
    zone_of = {}
    for zone in zone_set.of_kind(ZoneKind.REGISTER):
        for flop in zone.flops:
            zone_of[flop] = zone.name
    faults = []
    targets = [f.name for f in cpu.circuit.flops
               if f.name.startswith("core_a/")]
    for i, flop in enumerate(targets):
        faults.append(SeuFault(target=flop, zone=zone_of[flop],
                               offset=6 + (i % 9)))
        faults.append(StuckNetFault(target=flop, zone=zone_of[flop],
                                    value=i % 2))
    spec = CampaignSpec.from_zone_set(
        cpu.circuit, stimuli, zone_set,
        setup=MemoryImageSetup(
            mem_images={"imem/rom": assemble(PROGRAM)}))
    return CampaignSupervisor(spec, workers=1).run(
        CandidateList(faults=faults))


def fmea_for(cpu: MiniCpu, lockstep: bool):
    zone_set = extract_zones(cpu.circuit)
    plan = DiagnosticPlan("cpu-plan")
    if lockstep:
        plan.cover("core_a/*", "cpu_hw_redundancy", 0.99)
        plan.cover("core_b/*", "cpu_hw_redundancy", 0.99)
    plan.cover("imem/*", "rom_signature_double", 0.90)
    plan.cover("dmem/*", "ram_test_walkpath", 0.85,
               persistence="permanent")
    return build_worksheet(zone_set, plan=plan, name=cpu.cfg.name)


def core_register_dc(sheet):
    """Claimed DC restricted to the core register zones (the zones
    the injection campaign targets)."""
    from repro.iec61508 import FailureRates
    rates = FailureRates.sum(
        e.rates() for e in sheet.entries
        if e.zone.startswith("core_"))
    return rates.dc


def main():
    plain = MiniCpu(CpuConfig.plain())
    lockstep = MiniCpu(CpuConfig.lockstep_pair())

    _, outs = plain.execute(PROGRAM, cycles=60)
    print(f"program output on the bare core: {outs} "
          f"(5 + 3 = {outs[0]})")
    print(f"bare core:  {plain.circuit.stats()}")
    print(f"lock-step:  {lockstep.circuit.stats()}")

    rows = []
    for label, cpu, is_lk in (("bare core", plain, False),
                              ("lock-step pair", lockstep, True)):
        result = campaign(cpu)
        sheet = fmea_for(cpu, is_lk)
        rows.append([label,
                     len(result.results),
                     pct(result.measured_dc()),
                     pct(core_register_dc(sheet)),
                     pct(sheet.totals().sff)])
    print()
    print(render_table(
        ["design", "injections", "measured DC",
         "claimed core DC (FMEA)", "SFF"],
        rows,
        title="=== lock-step: claimed vs measured (IEC table A.4) ==="))
    print("\nIEC 61508 table A.4 assesses lock-step HW redundancy as "
          "'high' (99 %).\nThe measurement above is how §5 validates "
          "such a claim before the FMEA may use it.")


if __name__ == "__main__":
    main()
