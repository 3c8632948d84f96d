"""Cross-module property-based and exhaustive invariant tests."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import SecDedCode
from repro.fmea import (
    DiagnosticClaim,
    FitModel,
    build_worksheet,
    combine_coverage,
)
from repro.hdl import CompiledSimulator, Module, compile_circuit
from repro.iec61508 import FailureRates
from repro.iec61508.techniques import Target, techniques_for
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.zones import ZoneKind, extract_zones, predict_effects_table
from repro.faultinjection import (
    CandidateList,
    StuckNetFault,
    collapse,
    shard_candidates,
)

from .simulator_oracle import Simulator


# ----------------------------------------------------------------------
# SEC-DED: exhaustive proof for a small code
# ----------------------------------------------------------------------
def test_secded_k4_exhaustive():
    """Every word, every single error corrected; every double error
    detected — checked exhaustively, not sampled."""
    code = SecDedCode(4)
    n = code.n
    for data in range(16):
        cw = code.codeword(data)
        res = code.decode_word(cw)
        assert res.data == data and not res.corrected
        for bit in range(n):
            res = code.decode_word(cw ^ (1 << bit))
            assert res.data == data
            assert res.corrected and not res.uncorrectable
        for b1, b2 in itertools.combinations(range(n), 2):
            res = code.decode_word(cw ^ (1 << b1) ^ (1 << b2))
            assert res.uncorrectable
            assert not res.corrected


@given(st.integers(2, 64))
def test_secded_column_distance(k):
    """Any two columns XOR to a non-column (no single/double alias)."""
    code = SecDedCode(k)
    cols = set(code.columns)
    for a, b in itertools.combinations(code.columns, 2):
        assert (a ^ b) != 0
        # even-weight XOR of two odd-weight columns: never aliases to a
        # (necessarily odd-weight) column signature
        assert (a ^ b) not in cols


# ----------------------------------------------------------------------
# λ-algebra properties
# ----------------------------------------------------------------------
# subnormal rates underflow to 0.0 under scaled(k<1), which flips the
# SFF/DC ratios to the empty-total convention — exclude them
_rate_st = st.floats(0, 1e4, allow_subnormal=False)
rates_st = st.builds(FailureRates, _rate_st, _rate_st, _rate_st)


@given(rates_st, rates_st)
def test_rate_addition_commutative(a, b):
    left, right = a + b, b + a
    assert left.lambda_s == right.lambda_s
    assert left.lambda_dd == right.lambda_dd
    assert left.lambda_du == right.lambda_du


@given(rates_st)
def test_rate_bounds(r):
    assert 0.0 <= r.sff <= 1.0
    assert 0.0 <= r.dc <= 1.0
    assert r.total >= r.lambda_d >= r.lambda_dd


@given(rates_st, st.floats(0.001, 100))
def test_sff_scale_invariant(r, k):
    """SFF and DC are ratios: scaling all rates never changes them."""
    scaled = r.scaled(k)
    assert scaled.sff == pytest.approx(r.sff, rel=1e-9, abs=1e-12)
    assert scaled.dc == pytest.approx(r.dc, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# claim combination
# ----------------------------------------------------------------------
@given(st.lists(st.floats(0, 1), max_size=5))
def test_combine_coverage_monotone_and_bounded(ddfs):
    claims = [DiagnosticClaim("cpu_hw_redundancy", d) for d in ddfs]
    combined = combine_coverage(claims)
    assert 0.0 <= combined <= 1.0
    for claim in claims:
        assert combined >= claim.effective_ddf - 1e-12
    # adding one more technique never reduces coverage
    more = combine_coverage(claims + [
        DiagnosticClaim("bus_parity", 0.5)])
    assert more >= combined - 1e-12


# ----------------------------------------------------------------------
# simulator metamorphic property: buffering is transparent
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_buffer_insertion_transparent(stimuli):
    def build(buffered):
        m = Module("t")
        a = m.input("a", 8)
        b = m.input("b", 8)
        x = a ^ b
        if buffered:
            x = x.named("probe1").named("probe2")  # two buffer layers
        q = m.reg("r", x & a)
        m.output("y", q)
        return m.build()

    plain, buffered = Simulator(build(False)), Simulator(build(True))
    for a, b in stimuli:
        plain.step({"a": a, "b": b})
        buffered.step({"a": a, "b": b})
        plain.step_eval({"a": 0, "b": 0})
        buffered.step_eval({"a": 0, "b": 0})
        assert plain.output("y") == buffered.output("y")
        plain.step_commit()
        buffered.step_commit()


# ----------------------------------------------------------------------
# zone extraction invariants
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zone_set():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return extract_zones(sub.circuit, sub.extraction_config())


def test_every_flop_in_exactly_one_register_zone(zone_set):
    owner: dict[str, str] = {}
    for zone in zone_set.of_kind(ZoneKind.REGISTER):
        for flop in zone.flops:
            assert flop not in owner, (flop, owner[flop], zone.name)
            owner[flop] = zone.name
    all_flops = {f.name for f in zone_set.circuit.flops}
    assert set(owner) == all_flops


def test_memory_regions_partition_the_array(zone_set):
    mem = zone_set.circuit.memories[0]
    covered = []
    for zone in zone_set.of_kind(ZoneKind.MEMORY):
        lo, hi = zone.mem_words
        covered.extend(range(lo, hi + 1))
    assert sorted(covered) == list(range(mem.depth))


def test_zone_bits_accounting(zone_set):
    reg_bits = sum(z.size_bits
                   for z in zone_set.of_kind(ZoneKind.REGISTER))
    assert reg_bits == zone_set.circuit.flop_count()
    mem_bits = sum(z.size_bits
                   for z in zone_set.of_kind(ZoneKind.MEMORY))
    assert mem_bits == zone_set.circuit.memory_bits()


def test_main_effect_is_minimal(zone_set):
    table = predict_effects_table(zone_set)
    for pred in table.values():
        if not pred.effects:
            continue
        main = pred.main
        assert all(main.distance <= e.distance for e in pred.effects)


# ----------------------------------------------------------------------
# FIT conservation through the worksheet
# ----------------------------------------------------------------------
@given(st.floats(0.0001, 0.1), st.floats(0.0001, 0.1),
       st.floats(0.0001, 0.1))
@settings(max_examples=10, deadline=None)
def test_worksheet_fit_conservation(gate_fit, flop_fit, mem_fit):
    sub = MemorySubsystem(SubsystemConfig.small_baseline())
    zone_set = extract_zones(sub.circuit, sub.extraction_config())
    fit = FitModel(gate_transient_fit=gate_fit,
                   flop_transient_fit=flop_fit,
                   membit_transient_fit=mem_fit)
    sheet = build_worksheet(zone_set, fit_model=fit)
    expected = 0.0
    included = {e.zone for e in sheet.entries}
    for zone in zone_set.zones:
        if zone.name in included:
            t, p = fit.zone_fit(zone)
            expected += t + p
    assert sheet.totals().total == pytest.approx(expected, rel=1e-9)


@functools.cache
def _baseline_zone_set():
    sub = MemorySubsystem(SubsystemConfig.small_baseline())
    return extract_zones(sub.circuit, sub.extraction_config())


FIT_FIELDS = [f.name for f in dataclasses.fields(FitModel)]


def _near(value: float, reference, ulps: int = 4) -> bool:
    return abs(value - float(reference)) <= ulps * math.ulp(
        max(abs(float(reference)), 1.0))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_worksheet_rates_conserve_and_match_exact_metrics(data):
    """Under random FIT models and random claims on every row: each
    row's λS + λDD + λDU is its λ; the per-zone and per-persistence
    totals each sum to the sheet total; DC and SFF equal an exact
    ``Fraction`` evaluation over the rows within a few ulps."""
    fit = FitModel(**{name: data.draw(st.floats(0.0, 1.0), label=name)
                      for name in FIT_FIELDS})
    sheet = build_worksheet(_baseline_zone_set(), fit_model=fit)
    claims = st.lists(st.builds(DiagnosticClaim,
                                st.sampled_from(TECHNIQUE_KEYS),
                                st.floats(0.0, 1.0)), max_size=3)
    for entry in sheet.entries:
        entry.claims = data.draw(claims)

    rows = [entry.rates() for entry in sheet.entries]
    for entry, r in zip(sheet.entries, rows):
        assert _near(r.lambda_s + r.lambda_dd + r.lambda_du,
                     entry.raw_fit, ulps=2)

    total = sheet.totals()
    for parts in (sheet.totals_by_zone(), sheet.totals_by_persistence()):
        regrouped = sum(parts.values(), FailureRates())
        for name in ("lambda_s", "lambda_dd", "lambda_du"):
            assert getattr(regrouped, name) == pytest.approx(
                getattr(total, name), rel=1e-12, abs=0.0)

    s, dd, du = (sum(Fraction(getattr(r, name)) for r in rows)
                 for name in ("lambda_s", "lambda_dd", "lambda_du"))
    dc = dd / (dd + du) if dd + du else Fraction(1)
    sff = (s + dd) / (s + dd + du) if s + dd + du else Fraction(1)
    assert _near(sheet.dc, dc)
    assert _near(sheet.sff, sff)


@functools.cache
def _improved_zones():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return sub, sub.extract_zones()


TECHNIQUE_KEYS = sorted(t.key for target in Target
                        for t in techniques_for(target))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_raising_one_entry_ddf_never_lowers_dc_or_sff(data):
    """A further diagnostic claim on any one row raises (or keeps) its
    DDF, and the worksheet's DC and SFF never fall, up to two ulps of
    float rounding in the sums."""
    sub, zone_set = _improved_zones()
    sheet = sub.worksheet(zone_set)
    entry = data.draw(st.sampled_from(sheet.entries))
    claim = DiagnosticClaim(data.draw(st.sampled_from(TECHNIQUE_KEYS)),
                            data.draw(st.floats(0.0, 1.0)))
    dc, sff, ddf = sheet.dc, sheet.sff, entry.ddf
    entry.claims.append(claim)
    assert entry.ddf >= ddf
    slack = 2 * math.ulp(1.0)
    assert sheet.dc >= dc - slack
    assert sheet.sff >= sff - slack


# ----------------------------------------------------------------------
# fault-list invariants
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(0, 1)), max_size=20))
def test_collapse_idempotent(pairs):
    faults = [StuckNetFault(target=t, value=v) for t, v in pairs]
    once = collapse(CandidateList(faults=faults))
    twice = collapse(once)
    assert [f.name for f in once.faults] == \
        [f.name for f in twice.faults]
    assert len({f.name for f in once.faults}) == len(once.faults)


# ----------------------------------------------------------------------
# campaign sharding invariants
# ----------------------------------------------------------------------
def _numbered_faults(n):
    return [StuckNetFault(target=f"net{i}", value=i % 2)
            for i in range(n)]


@given(st.integers(0, 200), st.integers(1, 8))
@settings(deadline=None)
def test_sharding_partitions_the_fault_list(n, shards):
    """Shards are a partition: no fault lost, none duplicated, order
    preserved, and sizes balanced to within one fault."""
    faults = _numbered_faults(n)
    batches = shard_candidates(faults, shards)
    merged = [fault for batch in batches for fault in batch]
    assert merged == faults
    assert len(batches) == (min(shards, n) or 1)
    sizes = [len(batch) for batch in batches]
    assert max(sizes) - min(sizes) <= 1


@given(st.integers(0, 120))
@settings(deadline=None)
def test_shard_merge_order_independent_of_worker_count(n):
    """Concatenating shards in shard order reproduces the candidate
    order for *every* worker count — the invariant that makes the
    parallel campaign's per-fault ordering equal to the serial run."""
    faults = _numbered_faults(n)
    reference = [fault.name for fault in faults]
    for shards in range(1, 10):
        merged = [fault.name
                  for batch in shard_candidates(faults, shards)
                  for fault in batch]
        assert merged == reference


def test_sharding_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        shard_candidates(_numbered_faults(3), 0)


# ----------------------------------------------------------------------
# lane-width invariants: 63 / 64 / 65 machines
# ----------------------------------------------------------------------
# The compiled engine packs machines into uint64 lanes; 63, 64 and 65
# bracket the word boundary (last bit of one word, exactly one word,
# first bit of the next word).  Both engines must agree regardless of
# where the faulty machine lands relative to that boundary.
def _lane_circuit():
    m = Module("lane")
    a = m.input("a", 4)
    b = m.input("b", 4)
    q = m.reg("r", a ^ b, rst=m.input("rst", 1)[0])
    m.output("y", q & a)
    m.output("z", q.nor(a))
    return m.build()


@pytest.mark.parametrize("machines", [63, 64, 65])
def test_lane_width_engines_bit_identical(machines):
    circuit = _lane_circuit()
    isim = Simulator(circuit, machines=machines)
    csim = CompiledSimulator(compile_circuit(circuit),
                             machines=machines)
    full = (1 << machines) - 1
    victim = circuit.inputs["a"][0]
    # fault the top machine (straddles the word boundary at 65) and
    # machine 1 (always in word 0)
    for sim in (isim, csim):
        sim.stick_net(victim, 1, machines=1 << (machines - 1))
        sim.stick_net(circuit.inputs["b"][1], 0, machines=1 << 1)
    for cyc in range(6):
        stim = {"a": (3 * cyc) % 16, "b": (7 - cyc) % 16,
                "rst": 1 if cyc == 0 else 0}
        isim.step_eval(stim)
        csim.step_eval(stim)
        for net in range(circuit.num_nets):
            assert (isim.peek(net) & full) == csim.peek(net), \
                (machines, cyc, net)
        isim.step_commit()
        csim.step_commit()


@pytest.mark.parametrize("machines", [63, 64, 65])
def test_lane_width_mismatch_confined_to_faulty_machine(machines):
    """A fault armed on machine m can only ever raise mismatch bits of
    machine m — no leakage across the uint64 word boundary."""
    circuit = _lane_circuit()
    nets = list(range(circuit.num_nets))
    for m in (1, machines - 1):
        for sim in (Simulator(circuit, machines=machines),
                    CompiledSimulator(compile_circuit(circuit),
                                      machines=machines)):
            sim.stick_net(circuit.inputs["a"][2], 1, machines=1 << m)
            for cyc in range(4):
                sim.step({"a": 0, "b": 5, "rst": 1 if cyc == 0 else 0})
                assert sim.mismatch_mask(nets) & ~(1 << m) == 0, \
                    (machines, m, cyc)
