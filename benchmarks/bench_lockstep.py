"""Extension — IEC table A.4 measured: lock-step CPU coverage.

Not a table in the DATE'07 paper itself, but the claim it builds on:
"HW redundancy (lock-step dual core)" is assessed 'high' (99 %) by the
norm and realized in the companion fault-robust-CPU papers [8][16][17].
Here we *measure* the claim on a gate-level accumulator CPU with the
same injection machinery the memory study uses.
"""

from conftest import report

from repro.faultinjection import (
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    MemoryImageSetup,
    SeuFault,
    StuckNetFault,
)
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.zones import ZoneKind, extract_zones

PROGRAM = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
           ("ldi", 0), ("jnz", 0), ("out",)]


def _campaign(cpu):
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


def test_lockstep_measured_coverage(benchmark):
    lockstep = MiniCpu(CpuConfig.lockstep_pair())

    result = benchmark.pedantic(lambda: _campaign(lockstep),
                                rounds=2, iterations=1)
    plain_result = _campaign(MiniCpu(CpuConfig.plain()))

    dc_lockstep = result.measured_dc()
    dc_plain = plain_result.measured_dc()
    report(benchmark,
           iec_claim="high (99%)",
           measured_dc_lockstep=f"{dc_lockstep * 100:.1f}%",
           measured_dc_bare=f"{dc_plain * 100:.1f}%",
           injections=len(result.results))

    assert dc_plain < 0.5          # bare core leaks silently
    assert dc_lockstep > 0.9       # the 'high' claim holds


def test_lockstep_area_cost(benchmark):
    def build():
        return (MiniCpu(CpuConfig.plain()),
                MiniCpu(CpuConfig.lockstep_pair()))

    plain, lockstep = benchmark(build)
    ratio = lockstep.circuit.gate_count() / plain.circuit.gate_count()
    report(benchmark, gate_ratio=f"{ratio:.2f}x")
    # the textbook cost of lock-step: a bit over 2x the core logic
    assert 1.8 < ratio < 3.0
