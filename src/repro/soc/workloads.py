"""Workload (testbench stimulus) generators for the memory sub-system.

§5: "verification components available on the market can be easily
reused as a workload to inject faults" — our equivalents: the start-up
BIST sequence, March-style memory tests (the software RAM tests of IEC
table A.6), random bus traffic and a bursty application profile.  Each
workload is a flat, replayable list of per-cycle input dictionaries, so
the operational profiler and the fault-injection manager can correlate
"Workload, Operational Profiles, Fault List, and final measures".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ahb import READ_LATENCY, WRITE_GAP
from .subsystem import MemorySubsystem


@dataclass
class Phase:
    """A labeled cycle range within a workload.

    ``is_test`` marks software/hardware test phases (start-up BIST,
    march, self-tests): a golden/faulty mismatch observed inside a test
    phase counts as *detected* — it is exactly what the test's compare
    step would flag (the detection mechanism behind the "SW start-up
    tests" DDF claims of §6).
    """

    name: str
    start: int
    end: int          # exclusive
    is_test: bool = False

    def shifted(self, offset: int) -> "Phase":
        return Phase(self.name, self.start + offset, self.end + offset,
                     self.is_test)


@dataclass
class Workload:
    """A named, replayable stimulus sequence with phase annotations."""

    name: str
    stimuli: list[dict] = field(default_factory=list)
    description: str = ""
    phases: list[Phase] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.stimuli)

    def __iter__(self):
        return iter(self.stimuli)

    def __add__(self, other: "Workload") -> "Workload":
        offset = len(self.stimuli)
        phases = list(self.phases) + [p.shifted(offset)
                                      for p in other.phases]
        return Workload(name=f"{self.name}+{other.name}",
                        stimuli=self.stimuli + other.stimuli,
                        description="concatenation", phases=phases)

    def test_windows(self) -> list[tuple[int, int]]:
        return [(p.start, p.end) for p in self.phases if p.is_test]


class _Builder:
    """Accumulates bus operations with the protocol gaps applied."""

    def __init__(self, sub: MemorySubsystem, scrub_en: int = 0,
                 mpu: int | None = None):
        self.sub = sub
        self.kw = {"scrub_en": scrub_en}
        if mpu is not None:
            self.kw["mpu"] = mpu
        self.ops: list[dict] = []

    def reset(self, cycles: int = 2):
        self.ops.extend(self.sub.reset_op(**self.kw)
                        for _ in range(cycles))
        return self

    def idle(self, cycles: int = 1):
        self.ops.extend(self.sub.idle(**self.kw) for _ in range(cycles))
        return self

    def write(self, addr: int, data: int, gap: int = WRITE_GAP):
        self.ops.append(self.sub.write(addr, data, **self.kw))
        return self.idle(gap)

    def read(self, addr: int, settle: int = READ_LATENCY):
        self.ops.append(self.sub.read(addr, **self.kw))
        return self.idle(settle)

    def bist(self, selftest: int = 0):
        budget = 4 * self.sub.cfg.depth + 32
        op = self.sub.idle(bist_run=1, bist_selftest=selftest,
                           **self.kw)
        self.ops.extend(dict(op) for _ in range(budget))
        return self

    def done(self, name: str, description: str = "",
             is_test: bool = False) -> Workload:
        phases = [Phase(name, 0, len(self.ops), is_test=is_test)]
        return Workload(name=name, stimuli=self.ops,
                        description=description, phases=phases)


# ----------------------------------------------------------------------
# workload generators
# ----------------------------------------------------------------------
def startup_bist(sub: MemorySubsystem) -> Workload:
    """Reset followed by a full hardware BIST pass."""
    return (_Builder(sub).reset().bist().idle(2)
            .done("startup_bist", "reset + 2-pattern array BIST",
                  is_test=True))


def march_test(sub: MemorySubsystem, addresses=None,
               scrub_en: int = 0) -> Workload:
    """A March C- style software RAM test over the bus.

    Data values are the per-word all-zeros / all-ones patterns (bit
    width limited to the data bus).  This is the IEC A.6 'march' class
    software test the baseline claims its BIST/start-up coverage from.
    """
    ones = (1 << sub.cfg.data_bits) - 1
    addrs = list(addresses) if addresses is not None \
        else list(range(sub.cfg.depth))
    b = _Builder(sub, scrub_en=scrub_en).reset()
    # up: w0
    for a in addrs:
        b.write(a, 0)
    # up: r0, w1
    for a in addrs:
        b.read(a)
        b.write(a, ones)
    # up: r1, w0
    for a in addrs:
        b.read(a)
        b.write(a, 0)
    # down: r0, w1
    for a in reversed(addrs):
        b.read(a)
        b.write(a, ones)
    # down: r1, w0
    for a in reversed(addrs):
        b.read(a)
        b.write(a, 0)
    # up: r0
    for a in addrs:
        b.read(a)
    return b.done("march_c", "March C- over the bus",
                  is_test=True)


def address_decoder_test(sub: MemorySubsystem,
                         scrub_en: int = 0) -> Workload:
    """Marching address-lines test (IEC A.1 'no/wrong/multiple
    addressing').

    Writes a unique value to address 0 and to every power-of-two
    address, then reads them back: any stuck/bridged address line
    aliases two of those addresses onto the same cell, so at least one
    read-back mismatches — the classic address-decoder test pattern.
    """
    b = _Builder(sub, scrub_en=scrub_en).reset()
    targets = [0] + [1 << i for i in range(sub.cfg.addr_bits)]
    for i, addr in enumerate(targets):
        b.write(addr, (i + 1) & ((1 << sub.cfg.data_bits) - 1))
    for addr in targets:
        b.read(addr)
    return b.done("address_decoder_test",
                  "marching address lines (unique value per 2^k)",
                  is_test=True)


def random_traffic(sub: MemorySubsystem, n_ops: int = 64,
                   seed: int = 1234, scrub_en: int = 0,
                   address_pool=None) -> Workload:
    """Uniform random reads/writes with protocol gaps."""
    rng = random.Random(seed)
    pool = list(address_pool) if address_pool is not None \
        else list(range(sub.cfg.depth))
    b = _Builder(sub, scrub_en=scrub_en).reset()
    written: list[int] = []
    for _ in range(n_ops):
        if written and rng.random() < 0.5:
            b.read(rng.choice(written))
        else:
            addr = rng.choice(pool)
            b.write(addr, rng.getrandbits(sub.cfg.data_bits))
            written.append(addr)
    b.idle(4)
    return b.done(f"random_{n_ops}", "uniform random bus traffic")


def app_profile(sub: MemorySubsystem, bursts: int = 6,
                burst_len: int = 6, seed: int = 99,
                scrub_en: int = 1) -> Workload:
    """A bursty 'application' profile: local write bursts, read-back
    phases, idle windows (where the scrubber gets the port), and an
    occasional MPU-violating store."""
    rng = random.Random(seed)
    protected_mpu = (1 << sub.cfg.mpu_pages) - 2  # page 0 read-only
    b = _Builder(sub, scrub_en=scrub_en, mpu=protected_mpu).reset()
    page_words = sub.cfg.depth // sub.cfg.mpu_pages
    for burst in range(bursts):
        base = rng.randrange(max(1, sub.cfg.depth - burst_len))
        base = max(base, page_words)  # stay out of the protected page
        for i in range(burst_len):
            addr = min(base + i, sub.cfg.depth - 1)
            b.write(addr, rng.getrandbits(sub.cfg.data_bits))
        b.idle(3)
        for i in range(burst_len):
            b.read(min(base + i, sub.cfg.depth - 1))
        if burst % 3 == 1:
            # store into the protected page: must raise alarm_mpu
            b.write(rng.randrange(page_words),
                    rng.getrandbits(sub.cfg.data_bits))
        b.idle(6)
    return b.done("app_profile", "bursty application traffic with "
                  "MPU probes and scrub windows")


def mpu_probe(sub: MemorySubsystem) -> Workload:
    """Directed MPU test: one allowed and one denied store per page."""
    page_words = sub.cfg.depth // sub.cfg.mpu_pages
    b = _Builder(sub, mpu=0).reset()           # all pages protected
    for page in range(sub.cfg.mpu_pages):
        b.write(page * page_words, 0xA)        # all must be blocked
    b2 = _Builder(sub, mpu=(1 << sub.cfg.mpu_pages) - 1)
    b2.idle(1)                # let the MPU config register latch
    for page in range(sub.cfg.mpu_pages):
        b2.write(page * page_words, 0x5)       # all must pass
        b2.read(page * page_words)
    return (b.done("mpu_deny", is_test=True)
            + b2.done("mpu_allow", is_test=True))


def bist_selftest(sub: MemorySubsystem) -> Workload:
    """BIST fail-path self-test: inverted expect forces a miscompare.

    Exercises the fail latch and ``alarm_bist`` without a real defect
    (run last — the array content is trashed by the patterns anyway).
    A write is issued while BIST owns the array, so the write-buffer-
    held-during-BIST corner (drain blocked until BIST completes) is
    reached too.
    """
    b = _Builder(sub).reset()
    b.bist(selftest=1).idle(2)
    # overwrite one mid-BIST cycle with a bus write (bist_run kept high)
    mid = min(6, len(b.ops) - 3)
    b.ops[mid] = sub.write(0, 1, bist_run=1, bist_selftest=1)
    return b.done("bist_selftest", "forced-miscompare BIST pass",
                  is_test=True)


def error_selftest(sub: MemorySubsystem, scrub_en: int = 0,
                   max_bits: int | None = None) -> Workload:
    """Diagnostic self-test: walk the error-injection mask (§5).

    For every bit of the stored word, plant a single-bit error via the
    ``err_inject`` test mode and read it back — exercising every column
    of the corrector and raising ``alarm_ce`` — then plant one double-
    bit error to exercise the DED path (``alarm_ue``).  This is what
    lets the validation workload toggle the decoder's correction logic,
    which a fault-free workload never reaches.
    """
    b = _Builder(sub, scrub_en=scrub_en).reset()
    base = 0x5A5A5A5A & ((1 << sub.cfg.data_bits) - 1)
    mask = (1 << sub.cfg.data_bits) - 1
    if max_bits is None or max_bits >= sub.cfg.word_bits:
        walk = list(range(sub.cfg.word_bits))
    else:
        # stride the walk so every err_mask slice is exercised
        stride = max(1, sub.cfg.word_bits // max_bits)
        walk = list(range(0, sub.cfg.word_bits, stride))[:max_bits]
    for bit in walk:
        addr = bit % sub.cfg.depth
        # rotate the pattern so every data bit sees both values across
        # the walk (the scrub data register must fully toggle too)
        pattern = (base ^ (mask if bit % 2 else 0)) & mask
        b.ops.append(sub.write(addr, pattern, err_inject=1 << bit,
                               scrub_en=scrub_en))
        b.idle(WRITE_GAP)
        b.read(addr)
        if scrub_en:
            b.idle(8)                     # let the scrubber repair
        b.write(addr, pattern)            # restore a clean word
    # double-bit error: DED path
    b.ops.append(sub.write(0, base, err_inject=0b11,
                           scrub_en=scrub_en))
    b.idle(WRITE_GAP)
    b.read(0)
    b.write(0, base)
    return b.done("error_selftest",
                  "walking error-injection self-test", is_test=True)


def scrub_exercise(sub: MemorySubsystem, cycles: int = 60) -> Workload:
    """Idle time with scrubbing enabled (background scan)."""
    return (_Builder(sub, scrub_en=1).reset().idle(cycles)
            .done("scrub_scan", "idle bus, background scrubbing"))


def validation_workload(sub: MemorySubsystem,
                        quick: bool = False) -> Workload:
    """The §5 campaign workload: BIST + march + random + MPU + scrub.

    ``quick=True`` trims the march to a handful of addresses for
    per-fault injection runs; the full version is used for the
    toggle-coverage completeness check (§5 step b).
    """
    if quick:
        addrs = list(range(0, sub.cfg.depth,
                           max(1, sub.cfg.depth // 4)))[:4]
        march = march_test(sub, addresses=addrs, scrub_en=1)
        rand = random_traffic(sub, n_ops=12, seed=7, scrub_en=1,
                              address_pool=addrs)
        selftest = error_selftest(sub, scrub_en=1, max_bits=6)
        return (startup_bist(sub) + march + rand + selftest
                + mpu_probe(sub))
    return (startup_bist(sub) + march_test(sub)
            + random_traffic(sub, n_ops=48, seed=7, scrub_en=1)
            + app_profile(sub) + error_selftest(sub, scrub_en=1)
            + mpu_probe(sub) + scrub_exercise(sub)
            + bist_selftest(sub))
