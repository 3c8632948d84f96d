"""Pinned content addresses: the store's on-disk key format.

Every other fingerprint test is a self-consistency check (same input,
same digest; changed input, changed digest), which a wholesale format
change passes.  Existing ``.socfmea_store/`` directories stay warm only
while the digests themselves are unchanged, so this test pins their
values for four designs: the small memory subsystem (fmem), the
lock-step mini CPU, the two-bank small baseline and the full-size
improved subsystem.

Per design it pins a SHA-256 over the ordered per-fault fingerprints
and ``environment_fingerprint()``.  A deliberate
format change bumps ``FP_VERSION`` and regenerates the data file::

    PYTHONPATH=src python -m tests.test_fingerprint_pins --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.faultinjection import (
    CampaignSpec,
    CandidateList,
    MemFlipFault,
    MemoryImageSetup,
    SeuFault,
    StuckNetFault,
    build_environment,
)
from repro.service.core import make_subsystem
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.hdl.compiled import CompiledSimulator
from repro.store.fingerprint import FP_VERSION, FingerprintContext, \
    loaded_images, profile_key
from repro.zones import ZoneKind, extract_zones

PINS = Path(__file__).parent / "data" / "fingerprints_pinned.json"

MINICPU_PROGRAM = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0),
                   ("out",), ("ldi", 0), ("jnz", 0), ("out",)]


def _subsystem_case(variant: str, banks: int = 1):
    env = build_environment(make_subsystem(variant, banks=banks),
                            quick=True)
    return (FingerprintContext.from_spec(env.spec()),
            env.candidates().faults)


def _minicpu_images(spelling: str = "full depth") -> dict:
    """Spellings of one loaded state of the CPU's memories: the pinned
    form names every memory at full depth (the program padded with
    zeros, an all-zero RAM); the others leave out what loading fills
    in or drops (zero words, words past the depth, bits past the
    width)."""
    program = assemble(MINICPU_PROGRAM)
    padded = program + [0] * (32 - len(program))
    return {
        "full depth": {"imem/rom": padded, "dmem/ram": [0] * 32},
        "program only": {"imem/rom": program},
        "padded rom": {"imem/rom": padded},
        "overlong and wide": {
            "imem/rom": [word | 0x300 for word in padded] + [7, 7],
            "dmem/ram": [0x100] * 40},
    }[spelling]


def _minicpu_case(spelling: str = "full depth"):
    """Zone-attributed register faults, unresolvable net-index targets
    and zone-less memory flips on the lock-step CPU with a preloaded
    program ROM, the setup spelled as :func:`_minicpu_images` names."""
    cpu = MiniCpu(CpuConfig.lockstep_pair())
    circuit = cpu.circuit
    zone_set = extract_zones(circuit)
    zone_of = {flop: zone.name
               for zone in zone_set.of_kind(ZoneKind.REGISTER)
               for flop in zone.flops}
    faults = []
    for i, flop in enumerate(f.name for f in circuit.flops
                             if f.name.startswith("core_a/")):
        faults.append(SeuFault(target=flop, zone=zone_of[flop],
                               offset=6 + i % 9))
        faults.append(StuckNetFault(target=flop, zone=zone_of[flop],
                                    value=i % 2))
    rng = random.Random(99)
    ram = next(m for m in circuit.memories if "ram" in m.name)
    faults += [StuckNetFault(target=rng.randrange(circuit.num_nets),
                             value=rng.getrandbits(1))
               for _ in range(8)]
    faults += [MemFlipFault(target=ram.name, word=rng.randrange(ram.depth),
                            bit=rng.randrange(ram.width),
                            offset=rng.randrange(30))
               for _ in range(8)]
    setup = MemoryImageSetup(mem_images=_minicpu_images(spelling))
    spec = CampaignSpec.from_zone_set(
        circuit, [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80, zone_set,
        setup=setup)
    return FingerprintContext.from_spec(spec), \
        CandidateList(faults=faults).faults


CASES = {
    "fmem": lambda: _subsystem_case("small-improved"),
    "minicpu": _minicpu_case,
    "small-baseline-x2": lambda: _subsystem_case("small-baseline",
                                                 banks=2),
    "improved": lambda: _subsystem_case("improved"),
}


def pins_of(name: str) -> dict:
    return _pins(*CASES[name]())


def _pins(ctx, faults) -> dict:
    ordered = hashlib.sha256()
    for fault in faults:
        ordered.update(ctx.fault_fingerprint(fault).encode())
        ordered.update(b"\n")
    return {"faults": len(faults),
            "fault_fingerprints": ordered.hexdigest(),
            "environment_fingerprint": ctx.environment_fingerprint()}


def test_pins_cover_the_current_format():
    assert json.loads(PINS.read_text())["fp_version"] == FP_VERSION


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprints_match_pinned_values(name):
    pinned = json.loads(PINS.read_text())["designs"][name]
    assert pins_of(name) == pinned


@pytest.mark.parametrize("spelling", [
    "program only", "padded rom", "overlong and wide"])
def test_setup_address_is_the_state_it_loads(spelling):
    """A setup's content address is that of the state it loads: every
    spelling of the pinned CPU setup gets the pinned profile key and
    fault fingerprints."""
    pinned_ctx, faults = _minicpu_case()
    ctx, _ = _minicpu_case(spelling)
    assert _pins(ctx, faults) == _pins(pinned_ctx, faults)
    circuit, stimuli = ctx.circuit, [{}] * 4
    setup = MemoryImageSetup(mem_images=_minicpu_images(spelling))
    assert profile_key(circuit, stimuli, setup, {}) == profile_key(
        circuit, stimuli, MemoryImageSetup(
            mem_images=_minicpu_images()), {})
    # the canonical images are what the simulator holds after loading
    sim = CompiledSimulator(circuit)
    setup(sim)
    assert loaded_images(circuit, setup) == {
        m.name: [sim.read_mem_word(m.name, w) for w in range(m.depth)]
        for m in circuit.memories}


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.test_fingerprint_pins --write")
    PINS.write_text(json.dumps(
        {"fp_version": FP_VERSION,
         "designs": {name: pins_of(name) for name in sorted(CASES)}},
        indent=2, sort_keys=True) + "\n")
