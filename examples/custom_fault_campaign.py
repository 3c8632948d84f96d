#!/usr/bin/env python3
"""Power-user tour of the fault-injection machinery.

The high-level flow (`run_validation`) wraps everything; this example
drives the pieces by hand, the way a bring-up or debug session would:

1. hand-craft a fault list mixing every fault model;
2. run a campaign and read the raw per-fault records;
3. build a fault dictionary and diagnose an 'unknown' field return;
4. dump a VCD waveform of one faulty run for GTKWave.

Run:  python examples/custom_fault_campaign.py
"""

from repro.faultinjection import (
    BridgeFault,
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    FaultDictionary,
    MbuFault,
    MemFlipFault,
    ResultAnalyzer,
    SeuFault,
    StuckNetFault,
)
from repro.hdl import VcdTracer
from repro.soc import (
    MemorySubsystem,
    SubsystemConfig,
    march_test,
    random_traffic,
)


def build_fault_list(sub: MemorySubsystem) -> CandidateList:
    """One of everything, hand-placed."""
    circuit = sub.circuit
    zone_of = {}
    zone_set = sub.extract_zones()
    for zone in zone_set.zones:
        for flop in zone.flops:
            zone_of[flop] = zone.name

    pipe_flop = next(f.name for f in circuit.flops
                     if "pipe_data" in f.name)
    wbuf_flop = next(f.name for f in circuit.flops
                     if f.name.startswith("fmem/wbuf/data"))
    faults = [
        SeuFault(target=pipe_flop, zone=zone_of[pipe_flop], offset=30),
        SeuFault(target=wbuf_flop, zone=zone_of[wbuf_flop], offset=18),
        StuckNetFault(target=circuit.net_names[
            circuit.flops[0].q], zone=None, value=1),
        MemFlipFault(target="memarray/array", zone=None, word=2,
                     bit=3, offset=24),
        MbuFault(target="memarray/array", zone=None, word=2, bit=0,
                 span=2, offset=24),
        BridgeFault(target=circuit.net_names[circuit.flops[2].q],
                    victim=circuit.net_names[circuit.flops[3].q],
                    zone=None),
    ]
    return CandidateList(faults=faults)


def main():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    workload = march_test(sub, addresses=range(4), scrub_en=1) \
        + random_traffic(sub, n_ops=10, seed=3)
    zone_set = sub.extract_zones()

    spec = CampaignSpec.from_zone_set(
        sub.circuit, list(workload), zone_set,
        setup=sub.preload_image())

    faults = build_fault_list(sub)
    campaign = CampaignSupervisor(spec, workers=1).run(faults)
    print(f"campaign: {len(campaign.results)} faults, "
          f"{campaign.passes} pass(es), "
          f"{campaign.cycles_simulated} simulated cycles")
    for res in campaign.results:
        outcome = campaign.outcome_of(res)
        effects = ", ".join(sorted(res.effects)) or "-"
        print(f"  {res.fault.name:<44} {outcome:<20} "
              f"effects: {effects}")

    # a larger automatic campaign feeds the fault dictionary
    from repro.faultinjection import build_environment
    env = build_environment(sub, quick=True)
    dictionary = FaultDictionary.build(
        CampaignSupervisor(env.spec(), workers=1).run(env.candidates()))
    print(f"\n{dictionary.summary()}")
    field_return = {"alarm_ce": 5, "alarm_synd_data": 5, "hrdata": 5}
    print(f"diagnosing field signature {sorted(field_return)}:")
    for candidate in dictionary.diagnose(field_return, top=4):
        print(f"  {candidate}")

    # waveform of one faulty run (golden machine view of alarms)
    sim = sub.simulator()
    sim.schedule_mem_flip("memarray/array", 2, 3, cycle=24)
    tracer = VcdTracer(sub.circuit,
                       ["haddr", "hrdata", "rvalid", "alarm_ce",
                        "alarm_ue", "alarm_synd_data"])
    for op in workload:
        sim.step_eval(op)
        tracer.sample(sim)
        sim.step_commit()
    path = "/tmp/faulty_run.vcd"
    tracer.write(path)
    print(f"\nwaveform of the faulty run written to {path} "
          f"({len(tracer.dumps().splitlines())} lines, GTKWave-ready)")


if __name__ == "__main__":
    main()
