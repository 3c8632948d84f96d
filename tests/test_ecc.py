"""Tests for the ECC substrate: parity, SEC-DED Hsiao, address coding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    AddressedSecDed,
    SecDedCode,
    build_addressed_encoder,
    build_corrector,
    build_encoder,
    build_syndrome,
    check_parity,
    encode_parity,
    hsiao_columns,
    interleaved_parity,
    parity_of,
    suggest_check_bits,
)
from repro.hdl import Module

from .simulator_oracle import Simulator


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
def test_parity_of_basics():
    assert parity_of(0) == 0
    assert parity_of(1) == 1
    assert parity_of(0b1011) == 1
    assert parity_of(0b1111) == 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parity_roundtrip(value):
    p = encode_parity(value)
    assert check_parity(value, p)
    assert not check_parity(value ^ 1, p)


def test_odd_parity():
    assert encode_parity(0, odd=True) == 1
    assert check_parity(0b11, encode_parity(0b11, odd=True), odd=True)


def test_interleaved_parity_detects_adjacent_double():
    value = 0b0000_0000
    lanes = 4
    p = interleaved_parity(value, 8, lanes)
    corrupted = value ^ 0b11  # adjacent 2-bit upset in lanes 0 and 1
    assert interleaved_parity(corrupted, 8, lanes) != p


# ----------------------------------------------------------------------
# Hsiao SEC-DED reference model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k,r", [(8, 5), (16, 6), (32, 7), (64, 8)])
def test_suggest_check_bits(k, r):
    assert suggest_check_bits(k) == r


def test_hsiao_columns_distinct_odd():
    cols = hsiao_columns(7, 32)
    assert len(set(cols)) == 32
    assert all(bin(c).count("1") % 2 == 1 for c in cols)
    assert all(bin(c).count("1") >= 3 for c in cols)


@pytest.mark.parametrize("k", [8, 16, 32])
def test_no_error_decodes_clean(k):
    code = SecDedCode(k)
    for data in [0, 1, (1 << k) - 1, 0x5A5A5A5A & ((1 << k) - 1)]:
        res = code.decode(data, code.encode(data))
        assert res.data == data
        assert not res.corrected and not res.uncorrectable


@pytest.mark.parametrize("k", [8, 16, 32])
def test_all_single_data_errors_corrected(k):
    code = SecDedCode(k)
    rng = random.Random(1)
    for _ in range(10):
        data = rng.getrandbits(k)
        check = code.encode(data)
        for bit in range(k):
            res = code.decode(data ^ (1 << bit), check)
            assert res.corrected and not res.uncorrectable
            assert res.data == data
            assert res.error_position == bit


def test_single_check_bit_error_flagged_not_corrupting():
    code = SecDedCode(16)
    data = 0xBEEF
    check = code.encode(data)
    for bit in range(code.r):
        res = code.decode(data, check ^ (1 << bit))
        assert res.corrected and not res.uncorrectable
        assert res.data == data


@pytest.mark.parametrize("k", [8, 32])
def test_all_double_errors_detected_not_miscorrected(k):
    code = SecDedCode(k)
    rng = random.Random(7)
    data = rng.getrandbits(k)
    cw = code.codeword(data)
    n = code.n
    for _ in range(200):
        b1, b2 = rng.sample(range(n), 2)
        res = code.decode_word(cw ^ (1 << b1) ^ (1 << b2))
        assert res.uncorrectable
        assert not res.corrected


@given(data=st.integers(min_value=0, max_value=2**16 - 1),
       bit=st.integers(min_value=0, max_value=21))
@settings(max_examples=60)
def test_property_single_codeword_error(data, bit):
    code = SecDedCode(16)
    assert code.n == 22
    res = code.decode_word(code.codeword(data) ^ (1 << bit))
    assert not res.uncorrectable
    assert res.data == data


def test_distance_check():
    assert SecDedCode(32).distance_check()


# ----------------------------------------------------------------------
# gate-level ECC matches the reference model
# ----------------------------------------------------------------------
def _build_codec_circuit(k):
    code = SecDedCode(k)
    m = Module("codec")
    data_in = m.input("data_in", k)
    stored_check = m.input("stored_check", code.r)
    with m.scope("coder"):
        check = build_encoder(m, data_in, code)
    with m.scope("decoder"):
        synd = build_syndrome(m, data_in, stored_check, code)
        corrected, single, double = build_corrector(m, data_in, synd, code)
    m.output("check", check)
    m.output("corrected", corrected)
    m.output("single", single)
    m.output("double", double)
    return code, m.build()


@pytest.mark.parametrize("k", [8, 16])
def test_gate_level_encoder_matches_reference(k):
    code, circ = _build_codec_circuit(k)
    sim = Simulator(circ)
    rng = random.Random(3)
    for _ in range(25):
        data = rng.getrandbits(k)
        sim.step({"data_in": data, "stored_check": 0})
        assert sim.output("check") == code.encode(data)


def test_gate_level_corrector_single_error():
    code, circ = _build_codec_circuit(8)
    sim = Simulator(circ)
    data = 0xA5
    check = code.encode(data)
    for bit in range(8):
        sim.step({"data_in": data ^ (1 << bit), "stored_check": check})
        assert sim.output("corrected") == data
        assert sim.output("single") == 1
        assert sim.output("double") == 0


def test_gate_level_corrector_double_error():
    code, circ = _build_codec_circuit(8)
    sim = Simulator(circ)
    data = 0x3C
    check = code.encode(data)
    sim.step({"data_in": data ^ 0b101, "stored_check": check})
    assert sim.output("double") == 1
    assert sim.output("single") == 0


def test_gate_level_clean_word():
    code, circ = _build_codec_circuit(8)
    sim = Simulator(circ)
    data = 0x5A
    sim.step({"data_in": data, "stored_check": code.encode(data)})
    assert sim.output("corrected") == data
    assert sim.output("single") == 0
    assert sim.output("double") == 0


# ----------------------------------------------------------------------
# address-augmented code
# ----------------------------------------------------------------------
def test_addressed_code_roundtrip():
    code = AddressedSecDed(16, 8)
    for addr in (0, 1, 0x80, 0xFF):
        data = 0x1234
        check = code.encode(data, addr)
        res = code.decode(data, check, addr)
        assert res.data == data and not res.uncorrectable


def test_addressed_code_detects_wrong_address():
    code = AddressedSecDed(16, 8)
    data = 0xCAFE
    check = code.encode(data, addr=0x10)
    # read back from the *wrong* address: syndrome must flag it
    assert code.addressing_fault_detected(data, check, requested_addr=0x11)


def test_addressed_code_single_bit_still_corrects():
    code = AddressedSecDed(16, 8)
    data = 0x0F0F
    addr = 0x42
    check = code.encode(data, addr)
    res = code.decode(data ^ (1 << 5), check, addr)
    assert res.corrected and res.data == data


def test_addressed_columns_disjoint_from_data_columns():
    code = AddressedSecDed(32, 8)
    assert not set(code.addr_columns) & set(code.base.columns)


def test_gate_level_addressed_encoder():
    code = AddressedSecDed(8, 5)
    m = Module("addrcodec")
    data = m.input("data", 8)
    addr = m.input("addr", 5)
    check = build_addressed_encoder(m, data, addr, code)
    m.output("check", check)
    sim = Simulator(m.build())
    rng = random.Random(11)
    for _ in range(20):
        d, a = rng.getrandbits(8), rng.getrandbits(5)
        sim.step({"data": d, "addr": a})
        assert sim.output("check") == code.encode(d, a)
