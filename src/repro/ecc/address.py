"""Address-augmented SEC-DED coding.

The paper's improved implementation "add[s] the addresses to the coding
(required as well by IEC61508)": the check bits stored with each word
are computed over the data *and* the word's address.  On read, the
syndrome is computed with the *requested* address — so no/wrong/multiple
addressing faults (an IEC 61508 variable-memory failure mode) surface as
non-zero syndromes even though the stored codeword is internally
consistent.

Address bits are assigned odd-weight Hsiao columns disjoint from the
data columns, so a single address-line error produces a syndrome that
does not alias to a correctable data-bit error.
"""

from __future__ import annotations

from ..hdl.builder import Module, Vec
from .hamming import DecodeResult, SecDedCode, hsiao_columns


class AddressedSecDed:
    """SEC-DED over data, with the word address folded into the check."""

    def __init__(self, data_bits: int, addr_bits: int,
                 check_bits: int | None = None):
        if check_bits is None:
            # need disjoint odd-weight columns for data *and* address
            from .hamming import suggest_check_bits
            check_bits = suggest_check_bits(data_bits + addr_bits)
        self.base = SecDedCode(data_bits, check_bits)
        self.k = self.base.k
        self.r = self.base.r
        self.n = self.base.n
        self.addr_bits = addr_bits
        all_cols = hsiao_columns(self.r, self.k + addr_bits)
        self.addr_columns = all_cols[self.k:]

    def address_signature(self, addr: int) -> int:
        sig = 0
        for i in range(self.addr_bits):
            if (addr >> i) & 1:
                sig ^= self.addr_columns[i]
        return sig

    def encode(self, data: int, addr: int) -> int:
        return self.base.encode(data) ^ self.address_signature(addr)

    def syndrome(self, data: int, check: int, addr: int) -> int:
        return self.encode(data, addr) ^ check

    def decode(self, data: int, check: int, addr: int) -> DecodeResult:
        # Remove the address contribution, then decode as plain SEC-DED.
        return self.base.decode(data,
                                check ^ self.address_signature(addr))

    def addressing_fault_detected(self, data: int, check: int,
                                  requested_addr: int) -> bool:
        """True when the syndrome reveals an addressing error."""
        synd = self.syndrome(data, check, requested_addr)
        return synd != 0 and synd not in self.base._column_index \
            and not _is_unit(synd)


def _is_unit(value: int) -> bool:
    return value != 0 and value & (value - 1) == 0


def build_address_signature(m: Module, addr: Vec,
                            code: AddressedSecDed) -> Vec:
    """Gate-level XOR network computing the address signature."""
    if len(addr) != code.addr_bits:
        raise ValueError("address width does not match code")
    outs = []
    for j in range(code.r):
        taps = [addr.nets[i] for i in range(code.addr_bits)
                if (code.addr_columns[i] >> j) & 1]
        if taps:
            outs.append(Vec(m, taps).reduce_xor())
        else:
            outs.append(m.const(0))
    return m.cat(*outs)


def build_addressed_encoder(m: Module, data: Vec, addr: Vec,
                            code: AddressedSecDed) -> Vec:
    """Gate-level check-bit generator over data and address."""
    from .hamming import build_encoder
    base_check = build_encoder(m, data, code.base)
    return base_check ^ build_address_signature(m, addr, code)
